package ftfft

import (
	"context"
	"fmt"

	"ftfft/internal/exec"
	"ftfft/internal/mpi"
	"ftfft/internal/parallel"
)

// Transport is the wire a parallel Transform's ranks communicate over. The
// default (no WithTransport option) is a per-plan in-process channel matrix
// with the zero-copy shared-memory fast path; MessageOnlyTransport forces
// the explicit message-passing paths over the same in-process wire, and
// ListenHub opens a socket wire whose ranks 1..p-1 are worker OS processes
// (each running ServeWorker).
type Transport = mpi.Transport

// Hub is the root process's side of a socket-backed distributed world: rank
// 0 runs in the caller's process, the remaining ranks are worker processes
// that dialed in. Pass it to New via WithTransport; call Close when the
// Transform is retired — workers observe the shutdown and exit cleanly.
// InjectWireFaults installs a hook that corrupts serialized payload bytes in
// flight (wire-level soft errors, which the §5 block checksums repair on
// receipt).
type Hub = mpi.HubTransport

// ListenHub opens the root side of a distributed world for ranks ranks on
// network ("unix" or "tcp") and addr, returning immediately. Start ranks-1
// worker processes (ServeWorker, or `ftfft -worker -connect addr`); the
// handshake — accepting the workers, assigning each its rank in connection
// order, and shipping them the plan geometry and protection parameters —
// completes inside New, which therefore blocks until every worker has
// dialed in (bounded by a 120 s handshake timeout).
func ListenHub(network, addr string, ranks int) (*Hub, error) {
	return mpi.ListenHub(network, addr, ranks)
}

// ListenMeshHub is ListenHub with the peer mesh enabled: after the handshake
// the hub hands every worker its peers' listen addresses, workers dial each
// other directly (lower rank dials higher, exactly one connection per pair),
// and worker↔worker transpose frames travel point-to-point instead of taking
// two hops through the hub. The hub connection remains the control channel
// (abort, shutdown) and the relay fallback: a worker whose peer listener or
// peer dial fails (bounded by a 5 s deadline) logs the degradation and keeps
// running star-topology through the hub — mesh setup can slow a world down,
// never wedge it. Observe the split with Hub.WireStats.
func ListenMeshHub(network, addr string, ranks int) (*Hub, error) {
	return mpi.ListenMeshHub(network, addr, ranks)
}

// WireStats is a point-in-time snapshot of a distributed wire's traffic
// split: data frames/bytes sent peer-direct versus relayed through the hub,
// the number of live peer connections, and the high-water mark of epochs
// (pipelined transforms) simultaneously in flight on the world. Hub, ShmHub
// and the worker transports expose it via their WireStats method; on the shm
// wire every frame counts as direct (the rings are already a mesh).
type WireStats = mpi.WireStats

// ShmHub is the root process's side of a same-host shared-memory world: rank
// 0 runs in the caller's process, the remaining ranks are worker processes
// attached to the same memory-mapped ring file. Like Hub it is passed to New
// via WithTransport and Closed when the Transform is retired (which also
// removes the ring file); InjectWireFaults corrupts serialized payload bytes
// in the rings, the same wire-level fault site the socket hub exposes.
type ShmHub = mpi.ShmHubTransport

// ListenShmHub opens the root side of a same-host shared-memory world for
// ranks ranks, backed by per-rank-pair ring buffers in a memory-mapped file
// at path (which must not exist — it is created here and removed on Close).
// Start ranks-1 worker processes on the same path (ServeWorker with network
// "shm", or `ftfft -worker -transport shm -connect path`); the handshake —
// sizing the rings from the plan geometry, publishing it in the file header,
// and waiting for every worker to claim a rank — completes inside New, which
// therefore blocks until all workers attach (bounded by a 120 s timeout).
//
// Unlike the socket wire, the shared-memory world is a full mesh: every rank
// pair has its own ring, so worker↔worker traffic never relays through the
// root. Frames are serialized directly into the destination ring and copied
// out exactly once on receipt — no per-message syscalls or kernel copies.
func ListenShmHub(path string, ranks int) (*ShmHub, error) {
	return mpi.CreateShmHub(path, ranks)
}

// MessageOnlyTransport is an in-process channel wire for ranks ranks with
// the shared-memory fast path masked: rank bodies must use the explicit
// root-rank scatter/gather message exchanges, exactly as over sockets, while
// staying in one process. Its outputs are bit-identical to the default
// transport's — the transport-purity guarantee — which makes it the
// reference wire for distributed tests and the honest baseline for
// transport benchmarks.
func MessageOnlyTransport(ranks int) Transport {
	return mpi.MessageOnly(mpi.NewChanTransport(ranks))
}

// WithTransport runs the parallel 1-D transform's ranks over an explicit
// wire instead of the per-plan in-process default. Requires WithRanks(p) ≥ 2
// matching the transport's world size, and composes with every protection
// level that has a parallel formulation. A transport is a physical resource:
// the plan builds exactly one rank world over it, so concurrent calls on the
// Transform serialize, and a transform error that poisons the world (rank
// failure, lost connection, cancellation) retires the Transform — subsequent
// calls fail fast with the original cause.
func WithTransport(t Transport) Option {
	return func(c *config) { c.transport = t }
}

// WithoutPeerMesh makes a ServeWorker join relay-only: it advertises no peer
// listener and declines peer connections, so all of its traffic relays
// through the hub even under a ListenMeshHub root. The mesh protocol
// tolerates the mix — peers that cannot reach this worker fall back to the
// hub per pair — which makes the option useful for pinning a worker behind a
// NAT or for exercising the relay-fallback path deliberately. Only
// ServeWorker accepts it.
func WithoutPeerMesh() Option {
	return func(c *config) { c.noPeerMesh = true }
}

// ServeWorker runs this process as one rank of a distributed world: it dials
// the hub at network/addr (retrying while the listener comes up), completes
// the handshake — which assigns the rank and delivers the root plan's
// geometry and protection parameters, so both sides provably run the same
// scheme — and serves its slice of every transform the root initiates.
// Network "shm" attaches to the shared-memory world at the ring-file path
// addr (see ListenShmHub) instead of dialing a socket.
//
// ServeWorker returns nil when the root closes the hub (clean shutdown) and
// the wire or transform failure otherwise. Accepted options: WithInjector
// (worker-local fault injection), WithWorkers / WithExecutor (this process's
// dispatch budget), WithoutPeerMesh (decline peer connections under a mesh
// hub); geometry and protection options are rejected — they belong to the
// root.
func ServeWorker(ctx context.Context, network, addr string, opts ...Option) error {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.ranks != 0 || c.dimsSet || c.protection != None ||
		c.etaScale != 0 || c.maxRetries != 0 || c.transport != nil {
		return fmt.Errorf("ftfft: ServeWorker takes its geometry and protection from the hub handshake; only WithInjector / WithWorkers / WithExecutor / WithoutPeerMesh apply")
	}
	// The executor options get New's validation, not a silent fallback.
	if c.workers < 0 {
		return fmt.Errorf("ftfft: invalid worker count %d", c.workers)
	}
	if c.workers > 0 && c.executorSet {
		return fmt.Errorf("ftfft: invalid executor options: WithWorkers and WithExecutor are mutually exclusive")
	}
	pool := exec.Default()
	switch {
	case c.executorSet:
		if c.executor == nil {
			return fmt.Errorf("ftfft: invalid executor: WithExecutor requires a non-nil Executor")
		}
		pool = c.executor.pool
	case c.workers > 0:
		pool = exec.New(c.workers)
		defer pool.Close()
	}
	var tr mpi.Transport
	var meta mpi.WorldMeta
	if network == "shm" {
		wt, m, err := mpi.DialShmWorker(addr)
		if err != nil {
			return err
		}
		defer wt.Close()
		tr, meta = wt, m
	} else {
		dial := mpi.DialWorker
		if c.noPeerMesh {
			dial = mpi.DialWorkerNoMesh
		}
		wt, m, err := dial(network, addr)
		if err != nil {
			return err
		}
		defer wt.Close()
		tr, meta = wt, m
	}
	pl, err := parallel.NewPlan(meta.N, meta.P, parallel.Config{
		Protected:  meta.Protected,
		Optimized:  meta.Optimized,
		Injector:   c.injector,
		EtaScale:   meta.EtaScale,
		MaxRetries: meta.MaxRetries,
		Executor:   pool,
		Transport:  tr,
	})
	if err != nil {
		return err
	}
	return pl.Serve(ctx)
}
