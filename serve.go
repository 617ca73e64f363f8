// serve.go is the public face of FFT-as-a-service: ListenServe runs a
// long-lived spectral server multiplexing concurrent clients onto a bounded
// plan cache, and Client submits transforms to one. The service extends the
// paper's ABFT contract to the wire — every payload travels under §5 block
// checksums and every response is repaired or rejected, never silently
// wrong — while the transforms themselves run whatever protection scheme
// each request names.
package ftfft

import (
	"context"
	"fmt"

	"ftfft/internal/mpi"
	"ftfft/internal/serve"
	"ftfft/internal/tune"
)

// Server is a long-lived FFT service instance: it accepts client
// connections, multiplexes their requests onto a bounded LRU plan cache,
// and admits transform execution through the shared executor so QPS bursts
// degrade by queuing rather than goroutine explosion. Create one with
// ListenServe; stop it with Shutdown (graceful drain) or Close (immediate).
type Server = serve.Server

// ErrServerUnavailable is returned (wrapped) for requests a draining or
// stopped server refused.
var ErrServerUnavailable = serve.ErrUnavailable

// ErrClientClosed is returned by client calls issued — or still in
// flight — after Close, or after the connection failed.
var ErrClientClosed = serve.ErrClientClosed

// ServerConfig tunes a Server. The zero value is a working default: a
// 64-plan cache, payloads up to 1<<20 elements, in-flight requests bounded
// at twice the executor width, plans built on the process-wide shared pool.
type ServerConfig struct {
	// PlanCache bounds the number of cached plans; least recently used
	// plans are evicted beyond it. 0 means 64.
	PlanCache int
	// MaxInFlight bounds concurrently executing requests across all
	// connections — the burst backpressure point. 0 means 2×workers
	// (minimum 4).
	MaxInFlight int
	// MaxElems bounds one request's payload in complex128-equivalent
	// elements. 0 means 1<<20 (16 MiB of samples).
	MaxElems int
	// Workers sizes a server-owned executor pool; 0 shares the
	// process-wide default pool.
	Workers int

	// Injector, when non-nil, is installed in every plan the server
	// builds — the server-side fault-injection site for service
	// experiments. Clients cannot install injectors remotely.
	Injector Injector
	// EtaScale scales the §8 round-off detection thresholds of every
	// built plan; 0 means 1.
	EtaScale float64
	// MaxRetries caps recomputation attempts per protected unit in every
	// built plan; 0 means 3.
	MaxRetries int
}

// ListenServe starts an FFT server on network ("unix" or "tcp") and addr.
// Plans are built with New / NewReal exactly as a local caller would — each
// request names its own size, geometry (WithDims equivalent) and protection
// scheme — and cached across clients under cfg.PlanCache. Use
// (*Server).Addr to recover the bound address and (*Server).Shutdown for a
// graceful drain.
//
// Served plans follow the process-wide wisdom table (ImportWisdom) but never
// measure: a cache miss applies any recorded tuned choices and otherwise
// keeps the heuristics, so request latency never pays for a benchmark sweep.
// The plan cache keys on the wisdom epoch — importing or forgetting wisdom
// rotates cached plans out rather than mixing plans tuned under different
// tables.
func ListenServe(network, addr string, cfg ServerConfig) (*Server, error) {
	tuning := func() []Option {
		// tuneWisdom, not the client-visible modes: apply wisdom hits,
		// never benchmark inside a request.
		opts := []Option{WithTuning(tuneWisdom)}
		if cfg.Injector != nil {
			opts = append(opts, WithInjector(cfg.Injector))
		}
		if cfg.EtaScale != 0 {
			opts = append(opts, WithEtaScale(cfg.EtaScale))
		}
		if cfg.MaxRetries != 0 {
			opts = append(opts, WithMaxRetries(cfg.MaxRetries))
		}
		return opts
	}
	return serve.Listen(network, addr, serve.Config{
		NewTransform: func(n int, dims []int, protection byte) (serve.Transformer, error) {
			opts := append(tuning(), WithProtection(Protection(protection)))
			if len(dims) > 0 {
				opts = append(opts, WithDims(dims...))
			}
			return New(n, opts...)
		},
		NewReal: func(n int, protection byte) (serve.RealTransformer, error) {
			opts := append(tuning(), WithProtection(Protection(protection)))
			return NewReal(n, opts...)
		},
		PlanEpoch:   tune.Epoch,
		PlanCache:   cfg.PlanCache,
		MaxInFlight: cfg.MaxInFlight,
		MaxElems:    cfg.MaxElems,
		Workers:     cfg.Workers,
	})
}

// Client is a connection to a Server. One Client is safe for concurrent
// use: requests from many goroutines multiplex onto the single connection
// and responses are matched back by id, so N in-flight transforms share one
// dial. Requests and responses travel under §5 block checksums — a single
// corrupted element on either leg is repaired (and counted in the Report),
// anything worse is rejected with ErrUncorrectable.
type Client struct {
	c *serve.Client
}

// Dial connects to a Server at network/addr.
func Dial(network, addr string) (*Client, error) {
	c, err := serve.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// MaxElems returns the per-request element limit the server advertised.
func (c *Client) MaxElems() int { return c.c.MaxElems() }

// InjectWireFaults installs a hook over the serialized element payload of
// every outgoing request — wire-level soft errors, which the §5 checksums
// must repair server-side or reject. A nil hook removes it.
func (c *Client) InjectWireFaults(f func(payload []byte)) { c.c.InjectWireFaults(f) }

// Close tears the connection down; in-flight calls fail with
// ErrClientClosed. Idempotent.
func (c *Client) Close() error { return c.c.Close() }

// Forward computes the protected forward DFT of src on the server, writing
// the Len(src) output points into dst. Options select the scheme and
// geometry exactly as with New — WithProtection, WithDims —
// and determine which server-side cached plan serves the request.
func (c *Client) Forward(ctx context.Context, dst, src []complex128, opts ...Option) (Report, error) {
	return c.complexOp(ctx, mpi.OpForward, dst, src, opts)
}

// Inverse computes the protected inverse DFT (1/N normalization) of src on
// the server into dst, under the same options as Forward.
func (c *Client) Inverse(ctx context.Context, dst, src []complex128, opts ...Option) (Report, error) {
	return c.complexOp(ctx, mpi.OpInverse, dst, src, opts)
}

// RealForward computes the protected half spectrum of the len(src) real
// samples (even length) into dst, which must hold len(src)/2+1 bins.
// Geometry options do not apply to the 1-D real path and are rejected.
func (c *Client) RealForward(ctx context.Context, dst []complex128, src []float64, opts ...Option) (Report, error) {
	prot, dims, err := clientOptions(len(src), opts)
	if err != nil {
		return Report{}, err
	}
	if len(dims) > 0 {
		return Report{}, fmt.Errorf("ftfft: invalid real-transform options: WithDims does not apply to RealForward")
	}
	return c.c.Do(ctx, serve.Request{
		Op: mpi.OpRealForward, Protection: prot, N: len(src), Real: src,
	}, dst, nil)
}

// RealInverse computes the len(dst) real samples whose stored half spectrum
// is src (len(dst)/2+1 bins) into dst, with 1/n normalization. Geometry
// options are rejected as with RealForward.
func (c *Client) RealInverse(ctx context.Context, dst []float64, src []complex128, opts ...Option) (Report, error) {
	n := 2 * (len(src) - 1)
	prot, dims, err := clientOptions(n, opts)
	if err != nil {
		return Report{}, err
	}
	if len(dims) > 0 {
		return Report{}, fmt.Errorf("ftfft: invalid real-transform options: WithDims does not apply to RealInverse")
	}
	return c.c.Do(ctx, serve.Request{
		Op: mpi.OpRealInverse, Protection: prot, N: n, Data: src,
	}, nil, dst)
}

func (c *Client) complexOp(ctx context.Context, op mpi.ServeOp, dst, src []complex128, opts []Option) (Report, error) {
	prot, dims, err := clientOptions(len(src), opts)
	if err != nil {
		return Report{}, err
	}
	return c.c.Do(ctx, serve.Request{
		Op: op, Protection: prot, N: len(src), Dims: dims, Data: src,
	}, dst, nil)
}

// clientOptions distills an option list into the request parameters that
// travel on the wire: the protection byte and the geometry. Execution-side
// options (ranks, transports, executors, injectors, tuning) configure a
// plan where it runs — the server — and are rejected here so a client
// cannot silently believe it changed server behavior.
func clientOptions(n int, opts []Option) (protection byte, dims []int, err error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	switch {
	case c.ranks != 0:
		return 0, nil, fmt.Errorf("ftfft: invalid client options: WithRanks configures execution, which belongs to the server")
	case c.transport != nil:
		return 0, nil, fmt.Errorf("ftfft: invalid client options: WithTransport configures execution, which belongs to the server")
	case c.workers != 0 || c.executorSet:
		return 0, nil, fmt.Errorf("ftfft: invalid client options: WithWorkers/WithExecutor configure execution, which belongs to the server")
	case c.injector != nil:
		return 0, nil, fmt.Errorf("ftfft: invalid client options: WithInjector is server-side (ServerConfig.Injector); use InjectWireFaults for wire faults")
	case c.etaScale != 0 || c.maxRetries != 0:
		return 0, nil, fmt.Errorf("ftfft: invalid client options: WithEtaScale/WithMaxRetries are server-side tuning (ServerConfig)")
	case c.tuning != TuneEstimate:
		return 0, nil, fmt.Errorf("ftfft: invalid client options: WithTuning is plan-side; tune where plans are built and ship wisdom to the server (ImportWisdom)")
	case c.batchWindow != 0:
		return 0, nil, fmt.Errorf("ftfft: invalid client options: WithBatchWindow configures execution, which belongs to the server")
	}
	if err := c.validate(n); err != nil {
		return 0, nil, err
	}
	if _, err := c.protection.coreConfig(); err != nil {
		return 0, nil, err
	}
	return byte(c.protection), c.dims, nil
}
