package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"ftfft"
)

// job is one kind of op in a closed-loop mix. prep does the untimed
// preparation of one op (choosing and staging its input, arming its faults).
type job struct {
	name  string
	flops float64
	prep  func(rng *rand.Rand) op
}

// op is one prepared operation: the call to time and the check to run on its
// result. desc names what the op was given (its input, its faults), for
// failure messages and the seed-determinism test.
type op struct {
	desc  string
	call  func() (ftfft.Report, error)
	check func(ftfft.Report) error
}

// cycler yields job indices: counts[i] of job i per cycle, every cycle in an
// order shuffled by rng.
type cycler struct {
	cycle []int
	pos   int
	rng   *rand.Rand
}

func newCycler(counts []int, rng *rand.Rand) *cycler {
	c := &cycler{rng: rng}
	for i, n := range counts {
		for range n {
			c.cycle = append(c.cycle, i)
		}
	}
	c.pos = len(c.cycle)
	return c
}

func (c *cycler) next() int {
	if c.pos == len(c.cycle) {
		c.rng.Shuffle(len(c.cycle), func(a, b int) { c.cycle[a], c.cycle[b] = c.cycle[b], c.cycle[a] })
		c.pos = 0
	}
	c.pos++
	return c.cycle[c.pos-1]
}

// opRec is one successful, checked op: its job (for serve, its plan key),
// when it started since the run began (closed loops only), how long it took,
// and its flops.
type opRec struct {
	job   int
	at    time.Duration
	d     time.Duration
	flops float64
}

// runCycles drives jobs in a closed loop with one caller, in the order a
// cycler over counts gives, until d has passed. Only the call is timed;
// preparation and output checks run outside the timer. With spans non-nil
// each call is also recorded as a span.
func runCycles(jobs []*job, counts []int, d time.Duration, rng *rand.Rand, spans *spanLog) ([]opRec, *outcome) {
	o := &outcome{metrics: map[string]float64{}}
	var recs []opRec
	cy := newCycler(counts, rng)
	start := time.Now()
	for deadline := start.Add(d); time.Now().Before(deadline); {
		i := cy.next()
		j := jobs[i]
		p := j.prep(rng)
		o.attempted++
		t0 := time.Now()
		rep, err := p.call()
		dt := time.Since(t0)
		if spans != nil {
			spans.add(j.name, 0, t0, dt)
		}
		if err == nil {
			err = p.check(rep)
		}
		if err != nil {
			o.fail("%s %s: %v", j.name, p.desc, err)
			continue
		}
		recs = append(recs, opRec{job: i, at: t0.Sub(start), d: dt, flops: j.flops})
	}
	return recs, o
}

// A run's metrics are read from its quiet stretches. On the reference host
// (2 vCPUs shared with other tenants) every op, even one that fits in L2,
// slows by 30 to 60% for seconds at a time while a neighbour is busy, and
// such stretches covered anywhere from none to most of a 25 s run; a median
// over the whole run then reads whichever speed held the longer. So a run is
// cut into stretches (quietWindow long for closed loops, the closed-loop
// phases for serve), each stretch is scored by its slowdown, the time its
// ops took over the time they take at their kind's median over the run, and
// the metrics come from the quietest quietShare of the stretches.
const (
	quietWindow = 250 * time.Millisecond
	quietShare  = 0.25
)

// windows cuts a closed loop's checked ops into quietWindow stretches by
// their start time.
func windows(recs []opRec) [][]opRec {
	var ws [][]opRec
	for _, r := range recs {
		i := int(r.at / quietWindow)
		for len(ws) <= i {
			ws = append(ws, nil)
		}
		ws[i] = append(ws[i], r)
	}
	return ws
}

// quietest returns the quietest quietShare of the non-empty stretches ws (at
// least one), quietest first.
func quietest(ws [][]opRec) [][]opRec {
	per := map[int][]time.Duration{}
	for _, w := range ws {
		for _, r := range w {
			per[r.job] = append(per[r.job], r.d)
		}
	}
	med := make(map[int]float64, len(per))
	for j, ds := range per {
		med[j] = medianUS(ds)
	}
	type scored struct {
		w    []opRec
		slow float64
	}
	var ss []scored
	for _, w := range ws {
		if len(w) == 0 {
			continue
		}
		var took, usual float64
		for _, r := range w {
			took += float64(r.d) / 1e3
			usual += med[r.job]
		}
		ss = append(ss, scored{w, took / usual})
	}
	slices.SortStableFunc(ss, func(a, b scored) int { return cmp.Compare(a.slow, b.slow) })
	keep := min(len(ss), max(1, int(math.Round(quietShare*float64(len(ss))))))
	out := make([][]opRec, keep)
	for i := range out {
		out[i] = ss[i].w
	}
	return out
}

// closedMetrics derives the end-to-end metrics of a closed loop from its
// checked ops, and notes each job's op count and latencies. Each job's ops
// are timed at their median in the run's quiet stretches, so the mix counts
// as the whole run drew it while noise from outside the process hardly moves
// the result: throughput is the flops of all checked ops over that time, and
// max_rate_rps is the op rate the single caller sustains. The latency
// percentiles are taken over the quiet stretches' ops.
func closedMetrics(recs []opRec, jobs []*job, o *outcome) {
	all := make([][]time.Duration, len(jobs))
	var flops float64
	for _, r := range recs {
		all[r.job] = append(all[r.job], r.d)
		flops += r.flops
	}
	quiet := make([][]time.Duration, len(jobs))
	for _, w := range quietest(windows(recs)) {
		for _, r := range w {
			quiet[r.job] = append(quiet[r.job], r.d)
		}
	}
	var t float64 // seconds
	for i, ds := range quiet {
		if len(ds) == 0 { // a rare job that no quiet stretch caught
			ds, quiet[i] = all[i], all[i]
		}
		t += float64(len(all[i])) * medianUS(ds) / 1e6
		o.note("%-14s %6d ops, %5d quiet: p50 %8.3f ms, p99 %8.3f ms", jobs[i].name, len(all[i]), len(ds), percentileMS(ds, 0.5), percentileMS(ds, 0.99))
	}
	if t > 0 {
		o.metrics["throughput_gflops"] = flops / t / 1e9
		o.metrics["max_rate_rps"] = float64(len(recs)) / t
	}
	o.metrics["latency_p50_ms"] = mixLatencyMS(quiet, 0.50)
	o.metrics["latency_p99_ms"] = mixLatencyMS(quiet, 0.99)
}

// mixLatencyMS summarizes the latencies of a closed loop's jobs as the
// geometric mean over jobs of each job's q-quantile, in milliseconds. Every
// job counts once whatever its share of the ops, and the summary never sits
// on the boundary between two jobs' latency modes, where a percentile of the
// pooled ops would jump from one mode to the other between runs.
func mixLatencyMS(per [][]time.Duration, q float64) float64 {
	var sum float64
	n := 0
	for _, ds := range per {
		if len(ds) > 0 {
			sum += math.Log(percentileMS(ds, q))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// checkClose is the common output check: relative L2 error within tolerance.
func checkClose(got, want []complex128) error {
	if e := relErr(got, want); !(e <= tolerance) {
		return fmt.Errorf("relative L2 error %.3g exceeds %.0g", e, tolerance)
	}
	return nil
}
