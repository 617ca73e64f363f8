package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ftfft"
)

const (
	distN     = 1 << 16
	distRanks = 4
	distPool  = 16
	distBatch = 8
	// Executor sizes: the root's 4 workers open the epoch ring's full
	// ForwardBatch window; each in-process worker rank gets a private pool
	// (ranks sharing one saturated pool can starve each other's gangs).
	rootWorkers   = 4
	workerWorkers = 2
)

// world is one built rank world: the root's Transform and what tears it
// down (closing the hub and waiting for the in-process worker ranks).
type world struct {
	tr   ftfft.Transform
	hub  interface{ WireStats() ftfft.WireStats } // nil for in-process chan worlds
	stop func()
}

// buildWorld builds the named world for an n-point, 4-rank OnlineABFTMemory
// transform: "chan" (the default in-process wire), "message" (the same wire
// with the shared-memory fast path masked), "mesh" and "star" (a unix socket
// hub with and without the peer mesh), or "shm" (the mmap ring). Socket and
// ring worlds serve ranks 1..3 from ServeWorker goroutines in this process.
func buildWorld(name, dir string, n int, opts ...ftfft.Option) (*world, error) {
	base := append([]ftfft.Option{ftfft.WithRanks(distRanks), ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithWorkers(rootWorkers)}, opts...)
	w := &world{stop: func() {}}
	var network, addr string
	var closeHub func() error
	switch name {
	case "chan":
	case "message":
		base = append(base, ftfft.WithTransport(ftfft.MessageOnlyTransport(distRanks)))
	case "mesh", "star":
		network, addr = "unix", filepath.Join(dir, name+".sock")
		listen := ftfft.ListenMeshHub
		if name == "star" {
			listen = ftfft.ListenHub
		}
		hub, err := listen(network, addr, distRanks)
		if err != nil {
			return nil, err
		}
		w.hub, closeHub = hub, hub.Close
		base = append(base, ftfft.WithTransport(hub))
	case "shm":
		network, addr = "shm", filepath.Join(dir, "world.ring")
		hub, err := ftfft.ListenShmHub(addr, distRanks)
		if err != nil {
			return nil, err
		}
		w.hub, closeHub = hub, hub.Close
		base = append(base, ftfft.WithTransport(hub))
	default:
		return nil, fmt.Errorf("unknown world %q", name)
	}
	cancel := func() {}
	if closeHub != nil {
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		var wg sync.WaitGroup
		var mu sync.Mutex
		var werr error
		for range distRanks - 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := ftfft.ServeWorker(ctx, network, addr, ftfft.WithWorkers(workerWorkers)); err != nil {
					mu.Lock()
					werr = errors.Join(werr, err)
					mu.Unlock()
				}
			}()
		}
		// Workers return once the hub closes; canceling first would fail
		// them mid-shutdown.
		w.stop = func() {
			closeHub()
			wg.Wait()
			cancel()
			if werr != nil {
				fmt.Fprintf(os.Stderr, "world %s: worker: %v\n", name, werr)
			}
		}
	}
	tr, err := ftfft.New(n, base...)
	if err != nil {
		cancel() // workers may still be dialing a world that never formed
		w.stop()
		return nil, fmt.Errorf("world %s: %w", name, err)
	}
	w.tr = tr
	return w, nil
}

var distWorlds = []string{"chan", "mesh", "shm"}

type dist struct {
	e        *env
	src, ref [][]complex128
	worlds   []*world
	dst      [][]complex128
	hashes   map[int]uint64 // first output digest per input, across worlds
}

func newDist(e *env, probe bool) (workload, error) {
	d := &dist{e: e, hashes: map[int]uint64{}}
	rng := e.rng("dist.inputs")
	size := distPool
	if probe {
		size = 1
	}
	// Ordinary inputs only: the message wires' slice checksums reject
	// 1e300-scaled inputs today, which would fail ops and kill the world.
	for i := range size {
		x := genComplex(rng, ordinary[i%len(ordinary)], distN)
		d.src = append(d.src, x)
		if !probe {
			d.ref = append(d.ref, refComplex(x))
		}
	}
	for range distBatch {
		d.dst = append(d.dst, make([]complex128, distN))
	}
	return d, nil
}

func (d *dist) setup() error {
	ctx := context.Background()
	for _, name := range distWorlds {
		w, err := buildWorld(name, d.e.dir, distN)
		if err != nil {
			return err
		}
		d.worlds = append(d.worlds, w)
		if _, err := w.tr.Forward(ctx, d.dst[0], d.src[0]); err != nil {
			return fmt.Errorf("world %s: first call: %w", name, err)
		}
	}
	return nil
}

// checkItem checks one output against its reference and against the first
// output any world produced for the same input: all worlds must agree bit
// for bit.
func (d *dist) checkItem(k int, got []complex128) error {
	if err := checkClose(got, d.ref[k]); err != nil {
		return err
	}
	h := hashComplex(got)
	if first, ok := d.hashes[k]; !ok {
		d.hashes[k] = h
	} else if first != h {
		return fmt.Errorf("output differs bitwise from another world's")
	}
	return nil
}

// jobs is the dist mix: for each world, single Forwards and batches of 8 in
// equal items (8 singles per batch).
func (d *dist) jobs() ([]*job, []int) {
	ctx := context.Background()
	var js []*job
	var counts []int
	for i, name := range distWorlds {
		tr := func() ftfft.Transform { return d.worlds[i].tr } // built by setup
		js = append(js, &job{name: name + ".single", flops: flopsComplex(distN), prep: func(rng *rand.Rand) op {
			k := rng.Intn(len(d.src))
			return op{
				desc:  fmt.Sprintf("input %d", k),
				call:  func() (ftfft.Report, error) { return tr().Forward(ctx, d.dst[0], d.src[k]) },
				check: func(ftfft.Report) error { return d.checkItem(k, d.dst[0]) },
			}
		}})
		js = append(js, &job{name: name + ".batch8", flops: distBatch * flopsComplex(distN), prep: func(rng *rand.Rand) op {
			start := rng.Intn(len(d.src))
			src := make([][]complex128, distBatch)
			for j := range src {
				src[j] = d.src[(start+j)%len(d.src)]
			}
			return op{
				desc: fmt.Sprintf("inputs %d..%d (mod %d)", start, start+distBatch-1, len(d.src)),
				call: func() (ftfft.Report, error) { return tr().ForwardBatch(ctx, d.dst, src) },
				check: func(ftfft.Report) error {
					for j := range src {
						if err := d.checkItem((start+j)%len(d.src), d.dst[j]); err != nil {
							return fmt.Errorf("item %d: %w", j, err)
						}
					}
					return nil
				},
			}
		}})
		counts = append(counts, distBatch, 1)
	}
	return js, counts
}

func (d *dist) run(dur time.Duration, spans *spanLog) *outcome {
	js, counts := d.jobs()
	recs, o := runCycles(js, counts, dur, d.e.rng("dist.ops"), spans)
	closedMetrics(recs, js, o)
	return o
}

func (d *dist) close() {
	for _, w := range d.worlds {
		w.stop()
	}
}
