package ftfft

import (
	"context"
	"fmt"

	"ftfft/internal/exec"
	"ftfft/internal/parallel"
)

// parTransform is the parallel 1-D executor: the paper's §5 six-step
// in-place algorithm over simulated ranks, behind the unified contract.
// Forward delegates to the parallel plan; Inverse composes the conjugation
// identity around it, so the parallel path inverts without a dedicated
// inverse pipeline.
type parTransform struct {
	n, ranks int
	prot     Protection
	pl       *parallel.Plan
	window   int                          // pinned ForwardBatch window; 0 means heuristic
	scratch  *exec.Freelist[[]complex128] // conjugation staging for Inverse
}

// parallelConfig maps a Protection level onto the parallel scheme's
// (Protected, Optimized) axes. The parallel pipeline implements the online
// memory-protected scheme, so the offline levels have no parallel
// formulation and are rejected at plan time.
func parallelConfig(c config) (parallel.Config, error) {
	cfg := parallel.Config{
		Injector:   c.injector,
		EtaScale:   c.etaScale,
		MaxRetries: c.maxRetries,
		Executor:   c.pool,
		Transport:  c.transport,
	}
	switch c.protection {
	case None:
		cfg.Optimized = true // opt-FFTW: the best unprotected pipeline
	case OnlineABFT, OnlineABFTMemory:
		cfg.Protected, cfg.Optimized = true, true
	case OnlineABFTNaive, OnlineABFTMemoryNaive:
		cfg.Protected = true
	default:
		return cfg, fmt.Errorf("ftfft: protection %v has no parallel formulation (use an online level or None)", c.protection)
	}
	return cfg, nil
}

func newParTransform(n int, c config) (*parTransform, error) {
	cfg, err := parallelConfig(c)
	if err != nil {
		return nil, err
	}
	pl, err := parallel.NewPlan(n, c.ranks, cfg)
	if err != nil {
		return nil, err
	}
	// WithBatchWindow is validated to 0..exec.MinIdle; a window deeper
	// than the plan's in-flight bound is clamped to it. Inverse stages one
	// buffer per transform that can be in flight.
	return &parTransform{
		n: n, ranks: c.ranks, prot: c.protection, pl: pl,
		window:  min(c.batchWindow, pl.MaxInflight()),
		scratch: exec.NewFreelist[[]complex128](pl.MaxInflight()),
	}, nil
}

func (t *parTransform) Len() int               { return t.n }
func (t *parTransform) Dims() []int            { return []int{t.n} }
func (t *parTransform) Ranks() int             { return t.ranks }
func (t *parTransform) Protection() Protection { return t.prot }

func (t *parTransform) Forward(ctx context.Context, dst, src []complex128) (Report, error) {
	if err := checkArgs(t.n, dst, src); err != nil {
		return Report{}, err
	}
	return t.pl.TransformContext(ctx, dst, src)
}

func (t *parTransform) Inverse(ctx context.Context, dst, src []complex128) (Report, error) {
	if err := checkArgs(t.n, dst, src); err != nil {
		return Report{}, err
	}
	scratch, _ := t.scratch.Get(t.newScratch) // building a buffer cannot fail
	defer t.scratch.Put(scratch)
	for i, v := range src[:t.n] {
		scratch[i] = complex(real(v), -imag(v))
	}
	rep, err := t.pl.TransformContext(ctx, dst[:t.n], scratch)
	if err == nil {
		inv := complex(1/float64(t.n), 0)
		for i, v := range dst[:t.n] {
			dst[i] = complex(real(v), -imag(v)) * inv
		}
	}
	return rep, err
}

func (t *parTransform) newScratch() ([]complex128, error) { return make([]complex128, t.n), nil }

// ForwardBatch pipelines items through the executor: the caller's goroutine
// submits each item's rank group (parallel.Begin) and reaps completions in
// order through a small in-flight window. No per-item goroutines exist —
// concurrency comes from the executor admitting as many rank groups as its
// budget allows, and admission back-pressure paces the submission loop when
// it is saturated. The window is sized to the rank groups the executor can
// actually run at once (budget / local gang size, within the plan's
// in-flight bound), so a saturated batch holds no more worlds than it is
// using. A transport-backed plan pipelines through its epoch ring: up to
// MaxInflight items ride the wire at once, each on its own epoch, with
// reserve back-pressure (a Begin past the ring depth parks until the oldest
// item is reaped). WithBatchWindow pins the window instead of the
// heuristic.
func (t *parTransform) ForwardBatch(ctx context.Context, dst, src [][]complex128) (Report, error) {
	if err := checkBatch(t.n, dst, src); err != nil {
		return Report{}, err
	}
	window := t.window
	if window < 1 {
		window = min(t.pl.MaxInflight(), max(1, t.pl.Workers()/t.pl.Gang()))
	}
	type pending struct {
		inv  *parallel.Invocation
		item int
	}
	var (
		total    Report
		firstErr error
		inflight []pending
	)
	reap := func(p pending) {
		rep, err := p.inv.Wait()
		total.Add(rep)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("ftfft: batch item %d: %w", p.item, err)
		}
	}
	for i := range dst {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		inv, err := t.pl.Begin(ctx, dst[i], src[i])
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("ftfft: batch item %d: %w", i, err)
			}
			break
		}
		inflight = append(inflight, pending{inv, i})
		if len(inflight) >= window {
			head := inflight[0]
			inflight = inflight[1:]
			reap(head)
			if firstErr != nil {
				break
			}
		}
	}
	// Drain whatever is still in flight; in-order reaping means firstErr is
	// the lowest-index failure, matching the unbatched error contract.
	for _, p := range inflight {
		reap(p)
	}
	if firstErr != nil {
		return total, firstErr
	}
	return total, ctx.Err()
}
