// Command ftfft runs one protected transform and reports what the fault
// tolerance machinery saw — a quick way to watch the scheme detect and
// correct injected soft errors.
//
// Usage:
//
//	ftfft -n 20 -protection online-memory
//	ftfft -n 18 -protection online-memory -inject 1m+2c
//	ftfft -n 18 -protection offline -inject 1m
//	ftfft -n 20 -parallel 8 -inject 2m+2c
//	ftfft -dims 64x64x64 -inject 1m+1c
//	ftfft -n 20 -real -inject 1m+1c
//
// -real transforms n real samples through the packed half-length RFFT (one
// protected complex transform of n/2 points plus an O(n) untangling), then
// inverts the spectrum and checks the round trip; injected faults strike the
// inner complex transform's sites and are repaired by the same machinery.
//
// Distributed execution (real OS processes over sockets or shared memory):
//
//	ftfft -n 16 -parallel 4 -listen /tmp/ftfft.sock -spawn-workers
//	ftfft -n 16 -parallel 4 -listen /tmp/ftfft.sock   # plus, in 3 shells:
//	ftfft -worker -connect /tmp/ftfft.sock
//	ftfft -n 16 -parallel 4 -transport shm -listen /tmp/ftfft.ring -spawn-workers
//
// -listen makes this process rank 0 of a p-rank socket world (Unix-domain
// when the address contains a path separator or no colon, TCP otherwise)
// and blocks until the p-1 workers dial in; -spawn-workers forks them
// automatically. -worker -connect turns the process into one rank: it takes
// its geometry and protection from the hub's handshake and serves transforms
// until the driver exits. -transport shm swaps the sockets for same-host
// memory-mapped ring buffers (the -listen/-connect address is the ring-file
// path, created by the driver and removed on exit). -mesh on the driver has
// socket workers dial each other directly, so worker↔worker transpose frames
// skip the hub relay; -no-mesh on a worker keeps that one worker relay-only
// (its peers fall back to the hub for pairs involving it).
//
// -inject takes a mix like "2m+1c": m = memory faults, c = computational
// faults. -dims runs the N-dimensional axis-pass engine over the given
// row-major shape (with -parallel as the per-pass dispatch width).
//
// Autotuning (FFTW-style MEASURE with persistent wisdom):
//
//	ftfft -dims 8198 -tune -wisdom /tmp/ftfft.wisdom   # measure, run, save wisdom
//	ftfft -dims 8198 -wisdom /tmp/ftfft.wisdom         # reuse the saved choice
//
// -tune builds the plan under WithTuning(TuneMeasured): the one tuned choice
// is the Bluestein convolution length of a leaf size with a prime factor
// above 31 (8198 = 2·4099 carries the leaf 4099), timed at plan build and
// recorded as wisdom; power-of-two sizes have nothing to tune. -wisdom names
// a wisdom file imported (if present) before planning; with -tune the
// updated table is written back after the run, so the same flag on a later
// invocation — or on ftserve — replays the measured choice without
// re-measuring. Files written before the version-2 wisdom format are
// rejected and must be re-tuned.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"ftfft"
	"ftfft/internal/workload"
)

var protections = map[string]ftfft.Protection{
	"none":                ftfft.None,
	"offline":             ftfft.OfflineABFT,
	"offline-naive":       ftfft.OfflineABFTNaive,
	"online":              ftfft.OnlineABFT,
	"online-naive":        ftfft.OnlineABFTNaive,
	"online-memory":       ftfft.OnlineABFTMemory,
	"online-memory-naive": ftfft.OnlineABFTMemoryNaive,
}

func main() {
	logN := flag.Int("n", 18, "log2 of the transform size")
	dimsFlag := flag.String("dims", "", "N-D shape d0xd1x…, e.g. 64x64x64 (overrides -n; runs the axis-pass engine)")
	prot := flag.String("protection", "online-memory", "protection level: none, offline[-naive], online[-naive], online-memory[-naive]")
	realInput := flag.Bool("real", false, "transform real samples via the packed half-length RFFT (sequential 1-D only)")
	inject := flag.String("inject", "", "fault mix, e.g. 1c, 1m, 2m+2c (m = memory, c = computational)")
	parallelRanks := flag.Int("parallel", 0, "parallel ranks for 1-D, or axis-pass dispatch width with -dims (0 = sequential)")
	timeout := flag.Duration("timeout", 0, "cancel the transform after this long (0 = no deadline)")
	seed := flag.Int64("seed", 1, "input seed")
	worker := flag.Bool("worker", false, "run as a distributed worker rank (requires -connect)")
	connectAddr := flag.String("connect", "", "worker mode: hub address to dial")
	listenAddr := flag.String("listen", "", "driver mode: run -parallel ranks as OS processes; listen for workers here")
	spawnWorkers := flag.Bool("spawn-workers", false, "with -listen: fork the worker processes automatically")
	transport := flag.String("transport", "socket", "distributed wire: socket (unix/tcp, inferred from the address) or shm (same-host memory-mapped rings; -listen/-connect is the ring-file path)")
	mesh := flag.Bool("mesh", false, "with -listen: socket workers dial each other directly; worker↔worker frames skip the hub relay")
	noMesh := flag.Bool("no-mesh", false, "with -worker: join relay-only, declining peer mesh connections")
	tune := flag.Bool("tune", false, "build the plan under measured tuning: time the Bluestein convolution lengths and record the winner as wisdom")
	wisdomPath := flag.String("wisdom", "", "wisdom file (version 2; re-tune older files): imported before planning if present; with -tune, the updated table is saved back after the run")
	flag.Parse()

	if *transport != "socket" && *transport != "shm" {
		fatalf("unknown -transport %q (want socket or shm)", *transport)
	}
	importWisdom(*wisdomPath)
	if *worker {
		if *connectAddr == "" {
			fatalf("-worker requires -connect")
		}
		network := networkFor(*connectAddr)
		if *transport == "shm" {
			network = "shm"
		}
		var wopts []ftfft.Option
		if *noMesh {
			wopts = append(wopts, ftfft.WithoutPeerMesh())
		}
		if err := ftfft.ServeWorker(context.Background(), network, *connectAddr, wopts...); err != nil {
			fatalf("worker: %v", err)
		}
		return
	}
	if *noMesh {
		fatalf("-no-mesh is a worker flag (use -mesh on the driver)")
	}

	n := 1 << *logN
	dims, err := parseDims(*dimsFlag)
	if err != nil {
		fatalf("%v", err)
	}
	if dims != nil {
		n = 1
		for _, d := range dims {
			if n > math.MaxInt/d {
				fatalf("-dims %s: shape product overflows", *dimsFlag)
			}
			n *= d
		}
	}
	x := workload.Uniform(*seed, n)

	// A single-axis -dims is a 1-D transform: New routes it to the
	// sequential or six-step parallel engine, so the fault sites and label
	// must follow that dispatch rule, not the flag that selected the size.
	isND := len(dims) >= 2

	var sched *ftfft.Schedule
	if *inject != "" {
		mixRanks := *parallelRanks
		if isND {
			// N-D axis passes visit the sequential sites regardless of the
			// dispatch width; the parallel sites (message, parallel-fft)
			// exist only in the 1-D six-step scheme.
			mixRanks = 0
		}
		faults, err := parseMix(*inject, mixRanks)
		if err != nil {
			fatalf("%v", err)
		}
		if *listenAddr != "" {
			// Distributed runs inject at the driver: only rank 0's fault
			// sites are visited in this process, so pin the mix there — the
			// corrupted blocks still travel to (and are repaired by) the
			// remote ranks.
			for i := range faults {
				faults[i].Rank = 0
			}
		}
		sched = ftfft.NewFaultSchedule(*seed, faults...)
	}

	// One constructor for every strategy: protection × geometry ×
	// parallelism compose as options on the same planner.
	p, ok := protections[*prot]
	if !ok {
		fatalf("unknown protection %q", *prot)
	}
	opts := []ftfft.Option{ftfft.WithProtection(p)}
	if sched != nil {
		opts = append(opts, ftfft.WithInjector(sched))
	}
	if *tune {
		opts = append(opts, ftfft.WithTuning(ftfft.TuneMeasured))
	}
	if *realInput {
		if isND || dims != nil || *parallelRanks > 0 || *listenAddr != "" {
			fatalf("-real is a sequential 1-D transform; drop -dims/-parallel/-listen")
		}
		runReal(n, *logN, p, sched, opts, *timeout)
		saveWisdom(*tune, *wisdomPath)
		return
	}
	label := "sequential " + p.String()
	if dims != nil {
		opts = append(opts, ftfft.WithDims(dims...))
		if isND {
			label = fmt.Sprintf("%d-D axis-pass %s", len(dims), p)
		}
	}
	if *parallelRanks > 0 {
		// New itself rejects compositions without a parallel formulation
		// (the offline levels) with a descriptive error.
		opts = append(opts, ftfft.WithRanks(*parallelRanks))
		if isND {
			label += fmt.Sprintf(", %d-wide dispatch", *parallelRanks)
		} else {
			label = fmt.Sprintf("parallel %s, %d ranks", p, *parallelRanks)
		}
	}

	var workers []*exec.Cmd
	if *listenAddr != "" {
		if *parallelRanks < 2 || isND {
			fatalf("-listen needs a 1-D transform with -parallel ≥ 2")
		}
		network := networkFor(*listenAddr)
		var hub interface {
			ftfft.Transport
			Close() error
		}
		if *transport == "shm" {
			if *mesh {
				fatalf("-mesh applies to the socket wire; the shm rings are already a full mesh")
			}
			network = "shm"
			os.Remove(*listenAddr)
			h, err := ftfft.ListenShmHub(*listenAddr, *parallelRanks)
			if err != nil {
				fatalf("%v", err)
			}
			hub = h
		} else {
			if network == "unix" {
				os.Remove(*listenAddr)
			}
			listen := ftfft.ListenHub
			if *mesh {
				listen = ftfft.ListenMeshHub
			}
			h, err := listen(network, *listenAddr, *parallelRanks)
			if err != nil {
				fatalf("%v", err)
			}
			hub = h
		}
		defer hub.Close()
		opts = append(opts, ftfft.WithTransport(hub))
		label += fmt.Sprintf(", %d OS processes over %s", *parallelRanks, network)
		if *spawnWorkers {
			self, err := os.Executable()
			if err != nil {
				fatalf("%v", err)
			}
			for i := 1; i < *parallelRanks; i++ {
				w := exec.Command(self, "-worker", "-transport", *transport, "-connect", *listenAddr)
				w.Stderr = os.Stderr
				if err := w.Start(); err != nil {
					fatalf("spawning worker %d: %v", i, err)
				}
				workers = append(workers, w)
			}
			// The hub closes on exit (deferred above); workers observe the
			// goodbye and exit cleanly, so reap them at the end.
			defer func() {
				hub.Close()
				for _, w := range workers {
					w.Wait()
				}
			}()
		}
	}

	tr, err := ftfft.New(n, opts...)
	if err != nil {
		fatalf("%v", err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	dst := make([]complex128, n)
	start := time.Now()
	rep, err := tr.Forward(ctx, dst, x)
	took := time.Since(start)

	sizeDesc := fmt.Sprintf("N = 2^%d", *logN)
	if dims != nil {
		sizeDesc = *dimsFlag
	}
	fmt.Printf("transform : %s (%d points), %s\n", sizeDesc, n, label)
	fmt.Printf("time      : %v\n", took)
	if sched != nil {
		fmt.Printf("injected  : %d fault(s)\n", len(sched.Records()))
		for _, r := range sched.Records() {
			fmt.Printf("            %s at %s[%d] (rank %d): %v -> %v\n",
				r.Fault.Mode, r.Site, r.Index, r.Rank, r.Before, r.After)
		}
	}
	fmt.Printf("report    : detections=%d recomputed-subFFTs=%d memory-corrections=%d dmr-votes=%d restarts=%d\n",
		rep.Detections, rep.CompRecomputations, rep.MemCorrections, rep.TwiddleCorrections, rep.FullRestarts)
	if err != nil {
		fmt.Printf("result    : FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("result    : verified output (DC bin X[0] = %v)\n", dst[0])
	saveWisdom(*tune, *wisdomPath)
}

// importWisdom merges a wisdom file into the process table before any plan
// is built; a missing file is fine (first -tune run creates it on save).
func importWisdom(path string) {
	if path == "" {
		return
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		fatalf("reading -wisdom %s: %v", path, err)
	}
	if err := ftfft.ImportWisdom(data); err != nil {
		fatalf("importing -wisdom %s: %v", path, err)
	}
}

// saveWisdom writes the (possibly grown) wisdom table back after a measured
// run, so later invocations replay the choices without re-measuring.
func saveWisdom(tuned bool, path string) {
	if !tuned || path == "" {
		return
	}
	if err := os.WriteFile(path, ftfft.ExportWisdom(), 0o644); err != nil {
		fatalf("saving -wisdom %s: %v", path, err)
	}
}

// runReal executes the -real path: a protected RFFT of n samples, an IRFFT
// of the resulting half spectrum, and a round-trip check — the real-input
// twin of the complex run, with the same injection and reporting story.
func runReal(n, logN int, p ftfft.Protection, sched *ftfft.Schedule, opts []ftfft.Option, timeout time.Duration) {
	tr, err := ftfft.NewReal(n, opts...)
	if err != nil {
		fatalf("%v", err)
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	x := make([]float64, n)
	for i, z := range workload.Uniform(1, n) {
		x[i] = real(z)
	}
	spec := make([]complex128, tr.SpectrumLen())
	start := time.Now()
	rep, err := tr.Forward(ctx, spec, x)
	took := time.Since(start)
	fmt.Printf("transform : N = 2^%d (%d real samples -> %d spectrum bins), sequential real %s\n",
		logN, n, tr.SpectrumLen(), p)
	fmt.Printf("time      : %v\n", took)
	if sched != nil {
		fmt.Printf("injected  : %d fault(s)\n", len(sched.Records()))
		for _, r := range sched.Records() {
			fmt.Printf("            %s at %s[%d] (rank %d): %v -> %v\n",
				r.Fault.Mode, r.Site, r.Index, r.Rank, r.Before, r.After)
		}
	}
	fmt.Printf("report    : detections=%d recomputed-subFFTs=%d memory-corrections=%d dmr-votes=%d restarts=%d\n",
		rep.Detections, rep.CompRecomputations, rep.MemCorrections, rep.TwiddleCorrections, rep.FullRestarts)
	if err != nil {
		fmt.Printf("result    : FAILED: %v\n", err)
		os.Exit(1)
	}
	back := make([]float64, n)
	if _, err := tr.Inverse(ctx, back, spec); err != nil {
		fmt.Printf("result    : FAILED on inverse: %v\n", err)
		os.Exit(1)
	}
	worst := 0.0
	for i := range x {
		if d := math.Abs(back[i] - x[i]); d > worst {
			worst = d
		}
	}
	fmt.Printf("result    : verified output (DC bin X[0] = %v, round-trip max error %.3g)\n", spec[0], worst)
}

// networkFor infers the socket family from an address: anything that looks
// like a filesystem path is a Unix-domain socket, host:port is TCP.
func networkFor(addr string) string {
	if strings.ContainsAny(addr, "/\\") || !strings.Contains(addr, ":") {
		return "unix"
	}
	return "tcp"
}

// parseDims turns "64x64x64" into a shape, or nil when unset.
func parseDims(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		d, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || d < 1 {
			return nil, fmt.Errorf("bad -dims component %q (want d0xd1x…)", p)
		}
		dims = append(dims, d)
	}
	return dims, nil
}

// parseMix turns "2m+1c" into a fault list spread over distinct sites.
func parseMix(mix string, ranks int) ([]ftfft.Fault, error) {
	var out []ftfft.Fault
	memIdx, compIdx := 0, 0
	for _, part := range strings.Split(mix, "+") {
		part = strings.TrimSpace(part)
		if len(part) < 2 {
			return nil, fmt.Errorf("bad fault mix component %q", part)
		}
		count, err := strconv.Atoi(part[:len(part)-1])
		if err != nil || count < 1 {
			return nil, fmt.Errorf("bad fault count in %q", part)
		}
		kind := part[len(part)-1]
		for i := 0; i < count; i++ {
			rank := ftfft.AnyRank
			if ranks > 0 {
				rank = (memIdx + compIdx) % ranks
			}
			switch kind {
			case 'm':
				site := ftfft.SiteInputMemory
				if ranks > 0 {
					site = ftfft.SiteMessage
				} else if memIdx%2 == 1 {
					site = ftfft.SiteIntermediateMemory
				}
				out = append(out, ftfft.Fault{
					Site: site, Rank: rank, Occurrence: 1 + memIdx, Index: -1,
					Mode: ftfft.SetConstant, Value: 42,
				})
				memIdx++
			case 'c':
				site := ftfft.SiteSubFFT1
				if ranks > 0 {
					site = ftfft.SiteParallelFFT1
				} else if compIdx%2 == 1 {
					site = ftfft.SiteSubFFT2
				}
				out = append(out, ftfft.Fault{
					Site: site, Rank: rank, Occurrence: 2 + 3*compIdx, Index: -1,
					Mode: ftfft.AddConstant, Value: 5,
				})
				compIdx++
			default:
				return nil, fmt.Errorf("unknown fault kind %q (want m or c)", string(kind))
			}
		}
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ftfft: "+format+"\n", args...)
	os.Exit(1)
}
