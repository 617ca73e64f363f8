package tune

import (
	"time"

	"ftfft/internal/fft"
)

// Iters returns the deterministic measurement iteration count for an n-point
// candidate: enough repetitions to lift one sample well above timer
// granularity, capped so tuning a large plan stays in the low milliseconds.
// The count depends only on n — never on the clock — so a tuning sweep runs
// the same work on every host; only which candidate wins varies, and the
// winner is pinned by exporting wisdom.
func Iters(n int) int {
	const budget = 1 << 21 // ~2M points of work per sample
	if n < 1 {
		n = 1
	}
	it := budget / n
	if it < 3 {
		return 3
	}
	if it > 64 {
		return 64
	}
	return it
}

// Measure times fn over iters iterations — after one untimed warmup that
// faults in pooled scratch and table caches — and returns the best-of-two
// per-iteration cost; the min is robust against scheduler preemption.
// Timing only ever picks which deterministic candidate wins (outputs are
// fixed per candidate), so clock noise can never leak into results.
func Measure(iters int, fn func()) time.Duration {
	if iters < 1 {
		iters = 1
	}
	fn()
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 2; rep++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best / time.Duration(iters)
}

// MeasureConv times a leaf-point pure-Bluestein forward transform for every
// legal convolution length (fft.ConvCandidates — the same ladder the
// convCost heuristic scores) and returns the fastest, or 0 when leaf has no
// wisdom key (KeyFor). The candidate plans are transient: measurement cost
// is confined to plan build, and the winner is rebuilt into the caller's
// plan, so nothing measured leaks into steady state.
func MeasureConv(leaf int) int {
	if _, ok := KeyFor(leaf); !ok {
		return 0
	}
	cands := fft.ConvCandidates(leaf)
	iters := Iters(cands[len(cands)-1])
	src := make([]complex128, leaf)
	for i := range src {
		src[i] = complex(float64(i%17)-8, float64(i%13)-6)
	}
	dst := make([]complex128, leaf)
	best, bestT := 0, time.Duration(0)
	for _, m := range cands {
		m := m
		p, err := fft.NewPlanConfig(leaf, fft.Forward, fft.PlanConfig{ConvLen: func(int) int { return m }})
		if err != nil {
			continue
		}
		d := Measure(iters, func() { p.Execute(dst, src) })
		if best == 0 || d < bestT {
			best, bestT = m, d
		}
	}
	return best
}
