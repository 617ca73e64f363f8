// Package experiments regenerates every table and figure of the paper's
// evaluation (§9) on this repository's substrate. Each experiment prints
// rows shaped like the paper's, at laptop-scale default sizes (overridable):
// the claims under test are the *relative* ones — which scheme wins, by
// roughly what factor, and where the crossovers fall.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"ftfft/internal/core"
)

// Options parameterizes all experiments.
type Options struct {
	// Sizes are the sequential problem sizes (Fig. 7, Tables 1/4/5/6 use
	// Sizes or their first element). Default 2^16..2^19.
	Sizes []int
	// ParallelN is the strong-scaling size for Fig. 8(a)/Table 2.
	// Default 2^20.
	ParallelN int
	// WeakBase is the per-rank size for weak scaling (Fig. 8(b)/Table 3).
	// Default 2^16.
	WeakBase int
	// Ranks are the worker counts for the parallel experiments.
	// Default {2, 4, 8, 16}.
	Ranks []int
	// Runs is the number of timing repetitions. Default 3. Fig. 7 reports
	// each scheme's fastest run in CPU time of the transforming thread
	// (wall-clock time off Linux), the other timed experiments the median
	// wall-clock time.
	Runs int
	// FaultRuns is the Monte-Carlo sample count for Tables 4 and 6.
	// Default 200 (the paper uses 1000; raise it via the CLI for the full
	// run).
	FaultRuns int
	// Out receives the formatted tables.
	Out io.Writer
}

func (o Options) withDefaults() Options {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{1 << 16, 1 << 17, 1 << 18, 1 << 19}
	}
	if o.ParallelN == 0 {
		o.ParallelN = 1 << 20
	}
	if o.WeakBase == 0 {
		o.WeakBase = 1 << 16
	}
	if len(o.Ranks) == 0 {
		o.Ranks = []int{2, 4, 8, 16}
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.FaultRuns == 0 {
		o.FaultRuns = 200
	}
	return o
}

// Run dispatches an experiment by its paper id.
func Run(name string, o Options) error {
	switch name {
	case "fig7a":
		return Fig7a(o)
	case "fig7b":
		return Fig7b(o)
	case "table1":
		return Table1(o)
	case "fig8a":
		return Fig8a(o)
	case "fig8b":
		return Fig8b(o)
	case "table2":
		return Table2(o)
	case "table3":
		return Table3(o)
	case "table4":
		return Table4(o)
	case "table5":
		return Table5(o)
	case "table6":
		return Table6(o)
	case "all":
		for _, n := range Names() {
			if err := Run(n, o); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("experiments: unknown experiment %q (want one of %v)", name, Names())
	}
}

// Names lists all experiment ids in paper order.
func Names() []string {
	return []string{"fig7a", "fig7b", "table1", "fig8a", "fig8b", "table2", "table3", "table4", "table5", "table6"}
}

// timeMedian runs f reps times and returns the median wall-clock duration.
func timeMedian(reps int, f func() error) (time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], nil
}

// timeSchemes measures several sequential scheme configurations on a fixed
// input and returns each one's fastest threadClock time, which other load
// on the host cannot inflate. Every plan runs once untimed first. The timed
// runs then go round-robin across the schemes, each round starting one
// scheme later, so neither a stretch of background load nor a scheduler
// period that matches the round length keeps landing on the same scheme. A
// collection is forced before each timed run so that garbage left by one
// scheme is not charged to the next, and keeping the fastest run drops the
// runs that cache pollution from other work inflated anyway.
func timeSchemes(n int, cfgs []core.Config, src []complex128, reps int) ([]time.Duration, error) {
	trs := make([]*core.Transformer, len(cfgs))
	for i, cfg := range cfgs {
		tr, err := core.New(n, cfg)
		if err != nil {
			return nil, err
		}
		trs[i] = tr
	}
	dst := make([]complex128, n)
	in := make([]complex128, n)
	now, release := threadClock()
	defer release()
	run := func(tr *core.Transformer) (time.Duration, error) {
		copy(in, src) // schemes may repair their input; keep runs identical
		runtime.GC()
		start := now()
		_, err := tr.Transform(dst, in)
		return now() - start, err
	}
	for _, tr := range trs {
		if _, err := run(tr); err != nil {
			return nil, err
		}
	}
	best := make([]time.Duration, len(trs))
	for r := 0; r < max(reps, 1); r++ {
		for k := range trs {
			i := (r + k) % len(trs)
			d, err := run(trs[i])
			if err != nil {
				return nil, err
			}
			if r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return best, nil
}

// overheadPct returns 100·(t-base)/base.
func overheadPct(t, base time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(t-base) / float64(base)
}

// header prints a table banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
