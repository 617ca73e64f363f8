package ftfft

import (
	"context"
	"fmt"
	"runtime"

	"ftfft/internal/core"
	"ftfft/internal/exec"
	"ftfft/internal/nd"
)

// ndTransform is the local executor: the internal/nd axis-pass engine
// behind the unified contract, for every plan but the parallel 1-D one. A
// 1-D plan is the one-axis shape [n], whose single pass is one protected
// line. Every 1-D line of every axis pass runs under the configured
// protection, so the online scheme's timely-detection property — an error
// is caught and repaired before the next pass consumes it — extends to any
// rank. With WithRanks the tiles of each pass are dispatched as
// bounded-executor task groups of that width; scheduling never changes the
// arithmetic, so outputs are bit-identical to the serial schedule.
type ndTransform struct {
	workers int
	prot    Protection
	pl      *nd.Plan
	ex      *exec.Pool
}

func newNDTransform(n int, c config) (*ndTransform, error) {
	cfg, err := c.protection.coreConfig()
	if err != nil {
		return nil, err
	}
	cfg.Injector = c.injector
	cfg.EtaScale = c.etaScale
	cfg.MaxRetries = c.maxRetries
	dims := c.dims
	if len(dims) == 0 {
		dims = []int{n}
	}
	if len(dims) == 1 {
		// Tuning covers 1-D plans only (see WithTuning).
		applyCoreTuning(&cfg, &c)
		// nd skips length-1 axes and so never builds the transformer that
		// rejects n = 1 under the online schemes; build it here.
		if n == 1 {
			if _, err := core.New(1, cfg); err != nil {
				return nil, err
			}
		}
	}
	workers := max(c.ranks, 1)
	pl, err := nd.New(dims, nd.Config{Core: cfg, Workers: workers, Pool: c.pool})
	if err != nil {
		return nil, fmt.Errorf("ftfft: %w", err)
	}
	return &ndTransform{
		workers: workers,
		prot:    c.protection,
		pl:      pl,
		ex:      c.pool,
	}, nil
}

func (t *ndTransform) Len() int               { return t.pl.Len() }
func (t *ndTransform) Dims() []int            { return t.pl.Dims() }
func (t *ndTransform) Ranks() int             { return t.workers }
func (t *ndTransform) Protection() Protection { return t.prot }

func (t *ndTransform) Forward(ctx context.Context, dst, src []complex128) (Report, error) {
	if err := checkArgs(t.pl.Len(), dst, src); err != nil {
		return Report{}, err
	}
	return t.pl.Forward(ctx, dst, src)
}

func (t *ndTransform) Inverse(ctx context.Context, dst, src []complex128) (Report, error) {
	if err := checkArgs(t.pl.Len(), dst, src); err != nil {
		return Report{}, err
	}
	return t.pl.Inverse(ctx, dst, src)
}

func (t *ndTransform) ForwardBatch(ctx context.Context, dst, src [][]complex128) (Report, error) {
	if err := checkBatch(t.pl.Len(), dst, src); err != nil {
		return Report{}, err
	}
	// A plan with dispatch width (WithRanks) fans each item's axis passes
	// out already, so items run serially; a serial plan instead runs items
	// as an executor task group, bounded by the freelist cap so the steady
	// state never builds contexts the freelist would drop. The first
	// failing item (lowest index) determines the error.
	width := 1
	if t.workers == 1 {
		_, idleCap := t.pl.PooledContexts()
		width = min(runtime.GOMAXPROCS(0), idleCap, len(dst))
	}
	var total Report
	if width <= 1 {
		// Inline serial path: no dispatch, no allocation.
		for i := range dst {
			if err := ctx.Err(); err != nil {
				return total, err
			}
			rep, err := t.pl.Forward(ctx, dst[i], src[i])
			total.Add(rep)
			if err != nil {
				return total, fmt.Errorf("ftfft: batch item %d: %w", i, err)
			}
		}
		return total, nil
	}
	reps := make([]Report, width) // one per task-group slot
	err := t.ex.Run(ctx, len(dst), width, func(ctx context.Context, slot, i int) error {
		rep, err := t.pl.Forward(ctx, dst[i], src[i])
		reps[slot].Add(rep)
		if err != nil {
			return fmt.Errorf("ftfft: batch item %d: %w", i, err)
		}
		return nil
	})
	for _, rep := range reps {
		total.Add(rep)
	}
	return total, err
}
