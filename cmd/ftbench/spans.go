package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public entry point. Parent is the span that caused it (0: none);
// the calls of one ladder round share their round's span as parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log began
	Dur    int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory until the run ends. It is safe for
// concurrent use.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent int, start time.Time, d time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(l.t0)), Dur: int64(d)})
	return id
}

// setDur sets the duration of span id, for a span added before its
// children.
func (l *spanLog) setDur(id int, d time.Duration) {
	l.mu.Lock()
	l.spans[id-1].Dur = int64(d)
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.spans)
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (overlapping children count once).
func selfTime(s span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.Start+c.Dur, s.Start+s.Dur)
		if c.Parent == s.ID && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	covered, end := int64(0), s.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return time.Duration(s.Dur - covered)
}

// medianUSByName returns the median duration, in microseconds, of the spans
// of each name.
func medianUSByName(spans []span) map[string]float64 {
	by := map[string][]time.Duration{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], time.Duration(s.Dur))
	}
	out := make(map[string]float64, len(by))
	for name, ds := range by {
		out[name] = medianUS(ds)
	}
	return out
}

// rungSelf prices each rung of a ladder: a rung's self time is its median
// minus the median of the rung below it (the first rung is its own
// self time).
func rungSelf(med map[string]float64, ladder []string) map[string]float64 {
	out := make(map[string]float64, len(ladder))
	for i, name := range ladder {
		out[name] = med[name]
		if i > 0 {
			out[name] -= med[ladder[i-1]]
		}
	}
	return out
}
