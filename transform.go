package ftfft

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"ftfft/internal/exec"
)

// Transform is the unified executor every planner composition produces: one
// protected FFT with many execution strategies, behind one cancellable
// contract. Forward and Inverse compute out-of-place DFTs of exactly Len()
// points; ForwardBatch amortizes plan state across many transforms. All
// methods are safe for concurrent use — concurrent calls draw separate
// execution contexts from an internal pool.
//
// Cancellation: ctx is observed at sub-transform boundaries (and, for
// parallel transforms, unblocks ranks parked in a transpose receive via a
// communicator abort). A canceled call returns ctx.Err() with dst in an
// unspecified state. The returned Report is valid even alongside an error.
type Transform interface {
	// Forward computes X_j = Σ_t x_t·exp(-2πi·jt/N) from src into dst (2-D
	// shapes transform rows then columns). dst and src must each hold Len()
	// elements and must not alias. When memory protection is active and an
	// input memory fault is detected, src is repaired in place.
	Forward(ctx context.Context, dst, src []complex128) (Report, error)
	// Inverse computes the inverse DFT (1/N normalization) under the same
	// protection, via the conjugation identity IDFT(x) = conj(DFT(conj(x)))/N
	// — the entire ABFT machinery guards the inverse path too.
	Inverse(ctx context.Context, dst, src []complex128) (Report, error)
	// ForwardBatch runs Forward for every (dst[i], src[i]) pair, reusing the
	// plan's pooled execution contexts across items (and running items
	// concurrently when cores are idle). Outputs are bit-identical to the
	// equivalent sequence of Forward calls; with a stateful Injector
	// installed, which item a scheduled fault strikes may differ between
	// batched and unbatched runs, because concurrent items race for the
	// injector's occurrence counters. The aggregate Report sums all items;
	// the first failing item stops the batch.
	ForwardBatch(ctx context.Context, dst, src [][]complex128) (Report, error)
	// Len returns the total number of points per transform.
	Len() int
	// Dims returns a copy of the N-D geometry: one entry per axis of the
	// row-major shape. 1-D transforms report [Len()].
	Dims() []int
	// Ranks returns the parallelism degree: simulated ranks for a parallel
	// 1-D transform, axis-pass dispatch width for an N-D transform,
	// 1 otherwise.
	Ranks() int
	// Protection returns the configured fault-tolerance scheme.
	Protection() Protection
}

// New plans an n-point protected transform. The zero option set is a plain
// sequential 1-D FFT; options compose protection (WithProtection), geometry
// (WithDims) and parallelism (WithRanks):
//
//	ftfft.New(1<<20, ftfft.WithProtection(ftfft.OnlineABFTMemory))
//	ftfft.New(1<<20, ftfft.WithRanks(8), ftfft.WithProtection(ftfft.OnlineABFTMemory))
//	ftfft.New(rows*cols, ftfft.WithDims(rows, cols), ftfft.WithRanks(4))
//	ftfft.New(64*64*64, ftfft.WithDims(64, 64, 64), ftfft.WithRanks(8))
//
// Like FFTW, plans front-load all derived state — FFT sub-plans, twiddle
// tables, checksum weight vectors, communicators and workspaces — so
// executing a Transform allocates nothing in steady state. All dispatch
// (rank fan-out, 2-D passes, batch items) runs on one bounded executor: the
// process-wide default, or a private one via WithWorkers / WithExecutor.
func New(n int, opts ...Option) (Transform, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if err := c.validate(n); err != nil {
		return nil, err
	}
	private := false
	switch {
	case c.executorSet:
		c.pool = c.executor.pool
	case c.workers > 0:
		c.pool = exec.New(c.workers)
		private = true
	default:
		c.pool = exec.Default()
	}
	var t Transform
	var err error
	if len(c.dims) < 2 && c.ranks > 1 {
		t, err = newParTransform(n, c)
	} else {
		t, err = newNDTransform(n, c)
	}
	if err != nil {
		return nil, err
	}
	if private {
		// A WithWorkers pool lives and dies with its Transform: reclaim the
		// parked worker goroutines once the plan is unreachable. AddCleanup
		// needs the concrete pointer, not the interface.
		closePool := func(p *exec.Pool) { p.Close() }
		switch tt := t.(type) {
		case *parTransform:
			runtime.AddCleanup(tt, closePool, c.pool)
		case *ndTransform:
			runtime.AddCleanup(tt, closePool, c.pool)
		}
	}
	return t, nil
}

// validate is the uniform construction-time audit: every option's invalid
// range is rejected here, with one error shape, before any plan state is
// built. The zero value of every option is valid (and means "default").
func (c *config) validate(n int) error {
	if n < 1 {
		return fmt.Errorf("ftfft: invalid transform size %d", n)
	}
	if c.ranks < 0 {
		return fmt.Errorf("ftfft: invalid rank count %d", c.ranks)
	}
	if c.etaScale < 0 || math.IsNaN(c.etaScale) {
		return fmt.Errorf("ftfft: invalid eta scale %v", c.etaScale)
	}
	if c.maxRetries < 0 {
		return fmt.Errorf("ftfft: invalid retry limit %d", c.maxRetries)
	}
	if c.workers < 0 {
		return fmt.Errorf("ftfft: invalid worker count %d", c.workers)
	}
	if c.tuning != TuneEstimate && c.tuning != TuneMeasured && c.tuning != tuneWisdom {
		return fmt.Errorf("ftfft: invalid tuning mode %d", int(c.tuning))
	}
	if c.batchWindow < 0 || c.batchWindow > exec.MinIdle {
		return fmt.Errorf("ftfft: invalid batch window %d (0 means auto, max %d)", c.batchWindow, exec.MinIdle)
	}
	if c.workers > 0 && c.executorSet {
		return fmt.Errorf("ftfft: invalid executor options: WithWorkers and WithExecutor are mutually exclusive")
	}
	if c.transport != nil {
		if c.ranks < 2 {
			return fmt.Errorf("ftfft: invalid transport options: WithTransport needs WithRanks ≥ 2, got %d", c.ranks)
		}
		if c.dimsSet {
			return fmt.Errorf("ftfft: invalid transport options: WithTransport applies to the parallel 1-D transform, not WithDims")
		}
	}
	if c.executorSet && c.executor == nil {
		return fmt.Errorf("ftfft: invalid executor: WithExecutor requires a non-nil Executor")
	}
	if c.noPeerMesh {
		return fmt.Errorf("ftfft: invalid option: WithoutPeerMesh applies to ServeWorker, not New (mesh topology is chosen by the hub: ListenMeshHub vs ListenHub)")
	}
	if c.dimsSet {
		if len(c.dims) == 0 {
			return fmt.Errorf("ftfft: invalid dims: WithDims needs at least one axis")
		}
		prod := 1
		for _, d := range c.dims {
			if d < 1 {
				return fmt.Errorf("ftfft: invalid axis length %d in dims %v", d, c.dims)
			}
			// prod·d ≤ n ⇔ prod ≤ n/d (all positive), so the product can
			// never overflow before the mismatch is caught.
			if d > n || prod > n/d {
				return fmt.Errorf("ftfft: invalid dims %v for size %d", c.dims, n)
			}
			prod *= d
		}
		if prod != n {
			return fmt.Errorf("ftfft: invalid dims %v for size %d", c.dims, n)
		}
	}
	return nil
}

// checkArgs is the uniform API-boundary validation every executor applies:
// both buffers must hold n elements and must not alias (all transforms are
// out-of-place).
func checkArgs(n int, dst, src []complex128) error {
	if len(dst) < n || len(src) < n {
		return fmt.Errorf("ftfft: buffers too short: dst=%d src=%d, need %d", len(dst), len(src), n)
	}
	if &dst[0] == &src[0] {
		return fmt.Errorf("ftfft: dst and src alias the same memory; transforms are out-of-place")
	}
	return nil
}

// checkBatch validates a batch: matching item counts, and every pair passes
// checkArgs.
func checkBatch(n int, dst, src [][]complex128) error {
	if len(dst) != len(src) {
		return fmt.Errorf("ftfft: batch size mismatch: %d dst vs %d src", len(dst), len(src))
	}
	for i := range dst {
		if err := checkArgs(n, dst[i], src[i]); err != nil {
			return fmt.Errorf("ftfft: batch item %d: %w", i, err)
		}
	}
	return nil
}
