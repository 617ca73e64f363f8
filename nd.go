package ftfft

import (
	"context"
	"fmt"
	"runtime"

	"ftfft/internal/exec"
	"ftfft/internal/nd"
)

// ndTransform is the N-dimensional executor: the internal/nd axis-pass
// engine behind the unified contract. Every 1-D line of every axis pass
// runs under the configured protection, so the online scheme's
// timely-detection property — an error is caught and repaired before the
// next pass consumes it — extends to any rank. With WithRanks the tiles of
// each pass are dispatched as bounded-executor task groups of that width;
// scheduling never changes the arithmetic, so outputs are bit-identical to
// the serial schedule.
type ndTransform struct {
	dims    []int
	n       int
	workers int
	prot    Protection
	pl      *nd.Plan
	ex      *exec.Pool
}

func newNDTransform(c config) (*ndTransform, error) {
	cfg, err := c.protection.coreConfig()
	if err != nil {
		return nil, err
	}
	cfg.Injector = c.injector
	cfg.EtaScale = c.etaScale
	cfg.MaxRetries = c.maxRetries
	workers := max(c.ranks, 1)
	pl, err := nd.New(c.dims, nd.Config{Core: cfg, Workers: workers, Pool: c.pool})
	if err != nil {
		return nil, fmt.Errorf("ftfft: %w", err)
	}
	return &ndTransform{
		dims:    pl.Dims(),
		n:       pl.Len(),
		workers: workers,
		prot:    c.protection,
		pl:      pl,
		ex:      c.pool,
	}, nil
}

func (t *ndTransform) Len() int               { return t.n }
func (t *ndTransform) Dims() []int            { return append([]int(nil), t.dims...) }
func (t *ndTransform) Ranks() int             { return t.workers }
func (t *ndTransform) Protection() Protection { return t.prot }

func (t *ndTransform) Forward(ctx context.Context, dst, src []complex128) (Report, error) {
	if err := checkArgs(t.n, dst, src); err != nil {
		return Report{}, err
	}
	return t.pl.Forward(ctx, dst, src)
}

func (t *ndTransform) Inverse(ctx context.Context, dst, src []complex128) (Report, error) {
	if err := checkArgs(t.n, dst, src); err != nil {
		return Report{}, err
	}
	return t.pl.Inverse(ctx, dst, src)
}

func (t *ndTransform) ForwardBatch(ctx context.Context, dst, src [][]complex128) (Report, error) {
	if err := checkBatch(t.n, dst, src); err != nil {
		return Report{}, err
	}
	// A plan with dispatch width (WithRanks) fans each item's axis passes
	// out already, so items run serially; a serial plan instead batches
	// across items, bounded by the call-context pool's actual cap.
	itemWidth := 1
	if t.workers == 1 {
		_, poolCap := t.pl.PooledContexts()
		itemWidth = min(runtime.GOMAXPROCS(0), poolCap)
	}
	return runIndexed(ctx, t.ex, len(dst), itemWidth, "batch item", func(ctx context.Context, _, i int) (Report, error) {
		return t.Forward(ctx, dst[i], src[i])
	})
}
