package ftfft

import (
	"context"
	"fmt"

	"ftfft/internal/core"
	"ftfft/internal/exec"
)

// RealTransform is the real-input counterpart of Transform: protected
// forward and inverse transforms of n real samples, exchanging the stored
// half spectrum X_0..X_{n/2} (length SpectrumLen() = n/2+1; the upper half
// follows from conjugate symmetry X_{n-k} = conj(X_k) and is not stored).
//
// The implementation packs the n reals into an (n/2)-point complex vector,
// runs ONE protected complex transform of half the length, and untangles the
// spectrum in O(n) — roughly halving the work and memory traffic of
// transforming the same samples as zero-imaginary complex data. The inner
// complex transform carries the configured scheme's full ABFT machinery:
// every fault site is visited, verified and repaired exactly as in the
// complex path. The deterministic pack/untangle steps add no new fault
// sites.
//
// All methods are safe for concurrent use — concurrent calls draw separate
// execution contexts from an internal pool, and execution allocates nothing
// in steady state.
type RealTransform interface {
	// Forward computes the half spectrum of the n real samples in src into
	// dst (SpectrumLen() elements). X_0 and X_{n/2} are real by
	// construction. When memory protection is active, faults are repaired
	// in the packed staging copy; src itself is never modified.
	Forward(ctx context.Context, dst []complex128, src []float64) (Report, error)
	// Inverse computes the n real samples whose half spectrum is src
	// (SpectrumLen() elements; the imaginary parts of src[0] and
	// src[n/2] are ignored, as conjugate symmetry forces them to zero)
	// into dst, with 1/n normalization.
	Inverse(ctx context.Context, dst []float64, src []complex128) (Report, error)
	// Len returns the real transform length n.
	Len() int
	// SpectrumLen returns the stored half-spectrum length, n/2 + 1.
	SpectrumLen() int
	// Protection returns the configured fault-tolerance scheme.
	Protection() Protection
}

// NewReal plans an n-point protected real-input transform. n must be even;
// online protection levels additionally need a composite half length n/2 ≥ 4
// (the two-layer decomposition runs on the inner complex transform, so
// powers of two are ideal). Protection and tuning options compose exactly as
// with New; geometry and parallelism options (WithDims, WithRanks,
// WithTransport, WithWorkers, WithExecutor, WithBatchWindow) do not apply to
// the 1-D real path and are rejected.
func NewReal(n int, opts ...Option) (RealTransform, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if err := c.validate(n); err != nil {
		return nil, err
	}
	switch {
	case c.ranks > 1:
		return nil, fmt.Errorf("ftfft: invalid real-transform options: WithRanks does not apply to NewReal")
	case c.dimsSet:
		return nil, fmt.Errorf("ftfft: invalid real-transform options: WithDims does not apply to NewReal")
	case c.transport != nil:
		return nil, fmt.Errorf("ftfft: invalid real-transform options: WithTransport does not apply to NewReal")
	case c.workers > 0 || c.executorSet:
		return nil, fmt.Errorf("ftfft: invalid real-transform options: WithWorkers/WithExecutor do not apply to NewReal")
	case c.batchWindow > 0:
		return nil, fmt.Errorf("ftfft: invalid real-transform options: WithBatchWindow does not apply to NewReal")
	}
	cfg, err := c.protection.coreConfig()
	if err != nil {
		return nil, err
	}
	cfg.Injector = c.injector
	cfg.EtaScale = c.etaScale
	cfg.MaxRetries = c.maxRetries
	applyCoreTuning(&cfg, &c)
	// Real transforms run on their callers' goroutines; size the freelist
	// like a 1-D plan's on the default executor.
	r := &realTransform{n: n, prot: c.protection, cfg: cfg, free: exec.NewFreelist[*core.RealTransformer](exec.IdleCap(exec.Default().Workers()))}
	// Build the first context eagerly: it validates n against the scheme.
	rc, err := r.newCtx()
	if err != nil {
		return nil, err
	}
	r.free.Put(rc)
	return r, nil
}

// realTransform is the sequential real-input executor: core real
// transformers drawn one per in-flight call from a freelist, behind the
// RealTransform contract.
type realTransform struct {
	n    int
	prot Protection
	cfg  core.Config
	free *exec.Freelist[*core.RealTransformer]
}

func (r *realTransform) newCtx() (*core.RealTransformer, error) { return core.NewReal(r.n, r.cfg) }

func (r *realTransform) Len() int               { return r.n }
func (r *realTransform) SpectrumLen() int       { return r.n/2 + 1 }
func (r *realTransform) Protection() Protection { return r.prot }

func (r *realTransform) Forward(ctx context.Context, dst []complex128, src []float64) (Report, error) {
	if len(dst) < r.SpectrumLen() || len(src) < r.n {
		return Report{}, fmt.Errorf("ftfft: real-transform buffers too short: dst=%d src=%d, need %d and %d", len(dst), len(src), r.SpectrumLen(), r.n)
	}
	rc, err := r.free.Get(r.newCtx)
	if err != nil {
		return Report{}, err
	}
	rep, err := rc.TransformContext(ctx, dst, src)
	r.free.Put(rc)
	return rep, err
}

func (r *realTransform) Inverse(ctx context.Context, dst []float64, src []complex128) (Report, error) {
	if len(dst) < r.n || len(src) < r.SpectrumLen() {
		return Report{}, fmt.Errorf("ftfft: real-transform buffers too short: dst=%d src=%d, need %d and %d", len(dst), len(src), r.n, r.SpectrumLen())
	}
	rc, err := r.free.Get(r.newCtx)
	if err != nil {
		return Report{}, err
	}
	rep, err := rc.InverseContext(ctx, dst, src)
	r.free.Put(rc)
	return rep, err
}
