package ftfft

import (
	"ftfft/internal/exec"
	"ftfft/internal/mpi"
)

// Option configures New. Options compose: protection × geometry ×
// parallelism are independent axes, and every supported combination is
// reachable through one constructor.
type Option func(*config)

// config is the resolved option set.
type config struct {
	protection  Protection
	ranks       int
	dims        []int // resolved N-D geometry; nil means 1-D
	dimsSet     bool  // WithDims was supplied (even with invalid arguments)
	injector    Injector
	etaScale    float64
	maxRetries  int
	workers     int       // WithWorkers; 0 means unset
	executor    *Executor // WithExecutor
	executorSet bool
	transport   mpi.Transport // WithTransport; nil means per-plan in-process wire
	noPeerMesh  bool          // WithoutPeerMesh; ServeWorker-only
	tuning      TuningMode    // WithTuning; TuneEstimate means heuristics
	batchWindow int           // WithBatchWindow; 0 means auto

	// pool is the resolved executor every layer dispatches on, set by New.
	pool *exec.Pool
}

// WithProtection selects the fault-tolerance scheme (default None).
func WithProtection(p Protection) Option {
	return func(c *config) { c.protection = p }
}

// WithRanks runs the transform over p simulated ranks. For a 1-D transform
// this is the paper's §5 six-step in-place parallel algorithm (p² must
// divide N); combined with WithDims it sizes the worker pool the axis
// passes are dispatched over. p ≤ 1 means sequential execution.
func WithRanks(p int) Option {
	return func(c *config) { c.ranks = p }
}

// WithDims makes the transform N-dimensional over row-major
// dims[0]×dims[1]×…×dims[k-1] data: the transform runs as one protected
// 1-D axis pass per non-degenerate axis (innermost axis first), so the
// online scheme's timely-detection property holds between passes for any
// rank k ≥ 1. The planned size n must equal the product of the dims.
// Length-1 axes are accepted and skipped as identity passes.
func WithDims(dims ...int) Option {
	return func(c *config) {
		c.dims = append([]int(nil), dims...)
		c.dimsSet = true
	}
}

// WithInjector installs a fault injector, consulted at every fault site the
// protected transform visits. It must be safe for concurrent use when
// combined with WithRanks or ForwardBatch (Schedule is).
func WithInjector(inj Injector) Option {
	return func(c *config) { c.injector = inj }
}

// WithEtaScale scales the §8 round-off detection thresholds; 0 means 1.
// Raising it trades fault coverage for fewer false alarms.
func WithEtaScale(s float64) Option {
	return func(c *config) { c.etaScale = s }
}

// WithMaxRetries caps recomputation attempts per protected unit before the
// transform is declared uncorrectable; 0 means 3.
func WithMaxRetries(n int) Option {
	return func(c *config) { c.maxRetries = n }
}

// WithTuning selects the plan-time tuning policy (default TuneEstimate).
// Under TuneMeasured, sequential 1-D New plans and NewReal plans time the
// legal Bluestein convolution lengths for each leaf size on this host at
// plan build and record the winner in the process-wide wisdom table
// (ExportWisdom/ImportWisdom); later builds sharing the leaf hit the table
// instead of re-measuring. Plans without a Bluestein leaf — every
// power-of-two size — and parallel and N-D plans build exactly as under
// TuneEstimate. All measurement is confined to plan build: steady-state
// execution keeps its allocation and determinism contracts either way.
func WithTuning(m TuningMode) Option {
	return func(c *config) { c.tuning = m }
}

// WithBatchWindow pins a parallel plan's ForwardBatch epoch-pipelining
// window to k in-flight items (1 ≤ k ≤ 4); 0 (the default) keeps the
// executor-budget heuristic. Non-parallel New plans accept and ignore it,
// like WithRanks(1); NewReal rejects it with the other parallel options.
func WithBatchWindow(k int) Option {
	return func(c *config) { c.batchWindow = k }
}
