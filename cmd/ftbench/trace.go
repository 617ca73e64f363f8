package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"ftfft"
	"ftfft/internal/checksum"
	"ftfft/internal/core"
	"ftfft/internal/exec"
	"ftfft/internal/fft"
	"ftfft/internal/mpi"
	"ftfft/internal/nd"
)

// The core configurations behind the public protection levels None,
// OnlineABFT and OnlineABFTMemory.
var (
	cfgPlain  = core.Config{Scheme: core.Plain}
	cfgOnline = core.Config{Scheme: core.Online, Variant: core.Optimized}
	cfgMem    = core.Config{Scheme: core.Online, Variant: core.Optimized, MemoryFT: true}
)

// rung is one call of a ladder. prep and check run outside the timer; reps
// calls are timed as one span when a single call is too short to time.
type rung struct {
	name  string
	reps  int
	prep  func()
	call  func() error
	check func() error
}

// tracer runs the traced layer ladder: the benchmark's own code calls each
// layer's public entry point on the same input, records a span around each
// call, and prices each layer as its rung minus the rung below it.
type tracer struct {
	e      *env
	ctx    context.Context
	log    *spanLog
	o      *outcome
	m      map[string]float64
	budget time.Duration
}

// minRounds keeps every ladder's medians meaningful on a short run.
const minRounds = 5

// sink keeps results of timed pure functions alive.
var sink complex128

// ladder runs the rungs round-robin, one call each per round so that drift
// on the host hits every rung alike, for share of the run and at least
// minRounds rounds. Each timed call is a span whose parent is its round's
// span. It returns the median time of one call of each rung, in µs.
func (t *tracer) ladder(group string, share float64, rungs ...rung) map[string]float64 {
	budget := time.Duration(share * float64(t.budget))
	start := time.Now()
	first := t.log.len()
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		r0 := time.Now()
		parent := t.log.add(group+".round", 0, r0, 0)
		for _, r := range rungs {
			if r.prep != nil {
				r.prep()
			}
			t.o.attempted++
			reps := max(r.reps, 1)
			var err error
			t0 := time.Now()
			for k := 0; k < reps && err == nil; k++ {
				err = r.call()
			}
			t.log.add(r.name, parent, t0, time.Since(t0))
			if err == nil && r.check != nil {
				err = r.check()
			}
			if err != nil {
				t.o.fail("%s: %v", r.name, err)
			}
		}
		t.log.setDur(parent, time.Since(r0))
	}
	all := medianUSByName(t.log.all()[first:])
	med := make(map[string]float64, len(rungs))
	for _, r := range rungs {
		med[r.name] = all[r.name] / float64(max(r.reps, 1))
	}
	return med
}

func closeTo(got, want []complex128) func() error {
	return func() error { return checkClose(got, want) }
}

// runTraced is one traced run: the layer ladder, then the tracing overhead
// on the chosen workload. It prints every per-layer metric.
func runTraced(def workloadDef, e *env, log io.Writer) (result, []span, error) {
	t := &tracer{e: e, ctx: context.Background(), log: newSpanLog(), o: &outcome{metrics: map[string]float64{}},
		m: map[string]float64{}, budget: e.duration()}
	for _, step := range []func() error{
		t.kernel, t.checksums, t.validity, t.recovery, t.nd, t.parallel,
		t.serve, t.tune, func() error { return t.overhead(def) },
	} {
		if err := step(); err != nil {
			return result{}, nil, err
		}
	}
	t.m["exec.spawned"] = float64(exec.Default().Spawned())
	t.o.metrics = t.m
	for _, f := range t.o.failures {
		fmt.Fprintf(log, "FAILED: %s\n", f)
	}
	res, err := toResult(t.o, perLayer, log)
	return res, t.log.all(), err
}

// opsPerByte is a computed (not measured) arithmetic intensity of the flat
// kernel: 5·N·log₂N flops over the bytes one transform moves if every
// radix-4 pass and the bit-reversal gather each read and write all N
// complex128 elements once.
func opsPerByte(n int) float64 {
	passes := math.Ceil(math.Log2(float64(n))/2) + 1
	return flopsComplex(n) / (32 * float64(n) * passes)
}

// kernel climbs raw fft → core Plain → Online → Online+MemoryFT → public
// Forward at each ladder size; the exec pool's per-task cost rides along.
func (t *tracer) kernel() error {
	rng := t.e.rng("trace.kernel")
	shares := map[int]float64{1 << 12: 0.03, 1 << 16: 0.05, 1 << 20: 0.12}
	for _, n := range ladderSizes {
		x := genComplex(rng, uniform, n)
		ref := refComplex(x)
		raw, err := fft.NewPlan(n, fft.Forward)
		if err != nil {
			return err
		}
		var trs []*core.Transformer
		for _, cfg := range []core.Config{cfgPlain, cfgOnline, cfgMem} {
			tr, err := core.New(n, cfg)
			if err != nil {
				return err
			}
			trs = append(trs, tr)
		}
		api, err := ftfft.New(n, ftfft.WithProtection(ftfft.OnlineABFTMemory))
		if err != nil {
			return err
		}
		dst := make([][]complex128, 5)
		for i := range dst {
			dst[i] = make([]complex128, n)
		}
		sfx := fmt.Sprintf(".n%d", n)
		names := []string{"fft.raw" + sfx, "core.plain" + sfx, "core.online" + sfx, "core.online_mem" + sfx, "api.forward" + sfx}
		rungs := []rung{{name: names[0], call: func() error { raw.Execute(dst[0], x); return nil }, check: closeTo(dst[0], ref)}}
		for i, tr := range trs {
			rungs = append(rungs, rung{name: names[i+1], check: closeTo(dst[i+1], ref),
				call: func() error { _, err := tr.TransformContext(t.ctx, dst[i+1], x); return err }})
		}
		rungs = append(rungs, rung{name: names[4], check: closeTo(dst[4], ref),
			call: func() error { _, err := api.Forward(t.ctx, dst[4], x); return err }})
		med := t.ladder("kernel"+sfx, shares[n], rungs...)
		self := rungSelf(med, names)
		r := med[names[0]]
		t.m["fft.exec_us"+sfx] = r
		t.m["fft.ops_per_byte"+sfx] = opsPerByte(n)
		t.m["core.plain_us"+sfx] = med[names[1]]
		t.m["core.online_us"+sfx] = med[names[2]]
		t.m["core.online_mem_us"+sfx] = med[names[3]]
		t.m["core.decomp_tax_pct"+sfx] = 100 * self[names[1]] / r
		t.m["core.comp_ft_us"+sfx] = self[names[2]]
		t.m["core.mem_ft_us"+sfx] = self[names[3]]
		t.m["core.overhead_vs_raw_pct"+sfx] = 100 * (med[names[3]] - r) / r
		t.m["api.self_us"+sfx] = self[names[4]]
	}

	pool := exec.Default()
	noop := func(context.Context, int, int) error { return nil }
	med := t.ladder("exec", 0.01, rung{name: "exec.run.1024", call: func() error { return pool.Run(t.ctx, 1024, runtime.NumCPU(), noop) }})
	t.m["exec.run_us_per_task"] = med["exec.run.1024"] / 1024
	return nil
}

// checksums prices checksum generation and verification, the real-input
// untangle (a real 2^16 transform over the complex 2^15 one it packs into),
// and the serve wire codec.
func (t *tracer) checksums() error {
	rng := t.e.rng("trace.checksum")
	x := genComplex(rng, uniform, 1<<16)
	rA, w256 := checksum.CheckVector(1<<16), checksum.Weights(256)
	xr := genReal(rng, uniform, 1<<16)
	xh := genComplex(rng, uniform, 1<<15)
	realTr, err := core.NewReal(1<<16, cfgPlain)
	if err != nil {
		return err
	}
	halfTr, err := core.New(1<<15, cfgPlain)
	if err != nil {
		return err
	}
	rdst, hdst := make([]complex128, 1<<15+1), make([]complex128, 1<<15)
	rref, href := refReal(xr), refComplex(xh)

	x4 := x[:4096]
	w4 := checksum.Weights(4096)
	req := mpi.ServeRequest{Op: mpi.OpForward, Protection: byte(ftfft.OnlineABFTMemory), N: len(x4), Data: x4}
	frame, _ := mpi.AppendServeRequestPair(nil, &req, w4)
	f, body, err := mpi.ReadServeFrame(bytes.NewReader(frame), nil, 1<<20)
	if err != nil {
		return err
	}
	weightsFor := func(int) []complex128 { return w4 }
	var enc []byte
	decode := func() (*mpi.ServeRequest, checksum.Pair, error) {
		r, cur, _, err := mpi.DecodeServeRequestPair(f, body, weightsFor)
		return r, cur, err
	}
	med := t.ladder("checksum", 0.04,
		rung{name: "checksum.pair.n65536", call: func() error { sink += checksum.GeneratePair(rA, x).D1; return nil }},
		rung{name: "checksum.dot.n256", reps: 1000, call: func() error { sink += checksum.Dot(w256, x[:256]); return nil }},
		rung{name: "core.real.n65536", call: func() error { _, err := realTr.TransformContext(t.ctx, rdst, xr); return err }, check: closeTo(rdst, rref)},
		rung{name: "core.plain.n32768", call: func() error { _, err := halfTr.TransformContext(t.ctx, hdst, xh); return err }, check: closeTo(hdst, href)},
		rung{name: "mpi.serve_encode.n4096", reps: 20, call: func() error { enc, _ = mpi.AppendServeRequestPair(enc[:0], &req, w4); return nil },
			check: func() error {
				if !bytes.Equal(enc, frame) {
					return fmt.Errorf("re-encoded request frame differs")
				}
				return nil
			}},
		rung{name: "mpi.serve_decode.n4096", reps: 20, call: func() error {
			r, _, err := decode()
			if err == nil {
				r.Release()
			}
			return err
		}, check: func() error {
			r, cur, err := decode()
			if err != nil {
				return err
			}
			defer r.Release()
			if !bitsEqual(r.Data, x4) || cur.D1 != req.CS[0] || cur.D2 != req.CS[1] {
				return fmt.Errorf("decoded request differs from the encoded one")
			}
			return nil
		}})
	t.m["checksum.pair_us.n65536"] = med["checksum.pair.n65536"]
	t.m["checksum.dot_us.n256"] = med["checksum.dot.n256"]
	t.m["core.real_untangle_us.n65536"] = med["core.real.n65536"] - med["core.plain.n32768"]
	t.m["mpi.serve_encode_us.n4096"] = med["mpi.serve_encode.n4096"]
	t.m["mpi.serve_decode_us.n4096"] = med["mpi.serve_decode.n4096"]
	return nil
}

// validity counts how many valid adversarial inputs each online scheme
// rejects. A rejection is what the metric measures, not a failed op; an
// accepted output outside tolerance is a failed op.
func (t *tracer) validity() error {
	rng := t.e.rng("trace.validity")
	for _, p := range []struct {
		name string
		prot ftfft.Protection
	}{{"online", ftfft.OnlineABFT}, {"online_mem", ftfft.OnlineABFTMemory}} {
		rejected, total := 0, 0
		for _, n := range []int{1 << 12, 1 << 16} {
			tr, err := ftfft.New(n, ftfft.WithProtection(p.prot))
			if err != nil {
				return err
			}
			dst := make([]complex128, n)
			for _, f := range []family{spike, wideRange, denormal, huge} {
				for range 2 {
					x := genComplex(rng, f, n)
					ref := refComplex(x)
					total++
					t.o.attempted++
					if _, err := tr.Forward(t.ctx, dst, x); err != nil {
						rejected++
						continue
					}
					if err := checkClose(dst, ref); err != nil {
						t.o.fail("%s accepted %s input n=%d: %v", p.name, f, n, err)
					}
				}
			}
		}
		t.m["core.false_reject_frac."+p.name] = float64(rejected) / float64(total)
	}
	return nil
}

// recovery times the sequential 2^16 OnlineABFTMemory transform clean and
// under each Table 1 fault mix, on the same plan and input.
func (t *tracer) recovery() error {
	const n = 1 << 16
	rng := t.e.rng("trace.recovery")
	x := genComplex(rng, uniform, n)
	ref := refComplex(x)
	inj := &benchInjector{}
	cfg := cfgMem
	cfg.Injector = inj
	tr, err := core.New(n, cfg)
	if err != nil {
		return err
	}
	work, dst := make([]complex128, n), make([]complex128, n)
	var total ftfft.Report
	ops := 0
	rungs := []rung{{name: "core.clean.n65536",
		prep:  func() { copy(work, x); inj.cur.Store(nil) },
		call:  func() error { _, err := tr.TransformContext(t.ctx, dst, work); return err },
		check: closeTo(dst, ref)}}
	for _, mx := range seqMixes {
		var sched *ftfft.Schedule
		rungs = append(rungs, rung{name: "core.fault." + mx.name,
			prep: func() {
				copy(work, x)
				sched = ftfft.NewFaultSchedule(rng.Int63(), seqFaults(rng, mx.m, mx.c)...)
				inj.cur.Store(sched)
			},
			call: func() error {
				rep, err := tr.TransformContext(t.ctx, dst, work)
				total.Add(rep)
				ops++
				return err
			},
			check: func() error {
				inj.cur.Store(nil)
				if !sched.AllFired() {
					return fmt.Errorf("a scheduled fault did not strike")
				}
				return checkClose(dst, ref)
			}})
	}
	med := t.ladder("recovery", 0.08, rungs...)
	clean := med["core.clean.n65536"]
	for _, mx := range seqMixes {
		t.m["core.recover_us."+mx.name] = med["core.fault."+mx.name] - clean
	}
	per := func(v int) float64 { return float64(v) / float64(ops) }
	t.m["core.detections_per_op"] = per(total.Detections)
	t.m["core.recomputations_per_op"] = per(total.CompRecomputations)
	t.m["core.mem_corrections_per_op"] = per(total.MemCorrections)
	t.m["core.twiddle_corrections_per_op"] = per(total.TwiddleCorrections)
	t.m["core.repair_yield"] = float64(total.CompRecomputations+total.MemCorrections+total.TwiddleCorrections) / float64(max(total.Detections, 1))
	return nil
}

// nd prices the 512×512 OnlineABFTMemory transform serially and over two
// workers against the benchmark's own replay of its lines: 512 contiguous
// row transforms, then 512 strided column transforms in place, each a core
// strided transform.
func (t *tracer) nd() error {
	const side = 512
	x := genComplex(t.e.rng("trace.nd"), uniform, side*side)
	ref := ref2D(x, side, side)
	var trs []ftfft.Transform
	for _, w := range []int{1, 2} {
		tr, err := ftfft.New(side*side, ftfft.WithDims(side, side), ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithRanks(w))
		if err != nil {
			return err
		}
		trs = append(trs, tr)
	}
	line, err := core.New(side, cfgMem)
	if err != nil {
		return err
	}
	dst := [3][]complex128{make([]complex128, side*side), make([]complex128, side*side), make([]complex128, side*side)}
	lines := func() error {
		for r := 0; r < side; r++ {
			if _, err := line.TransformStrided(t.ctx, dst[2][r*side:], x[r*side:], 1, 1); err != nil {
				return err
			}
		}
		for c := 0; c < side; c++ {
			if _, err := line.TransformStrided(t.ctx, dst[2][c:], dst[2][c:], side, side); err != nil {
				return err
			}
		}
		return nil
	}
	med := t.ladder("nd", 0.06,
		rung{name: "nd.lines.512x512", call: lines, check: closeTo(dst[2], ref)},
		rung{name: "nd.w1.512x512", call: func() error { _, err := trs[0].Forward(t.ctx, dst[0], x); return err }, check: closeTo(dst[0], ref)},
		rung{name: "nd.w2.512x512", call: func() error { _, err := trs[1].Forward(t.ctx, dst[1], x); return err }, check: closeTo(dst[1], ref)})
	w1, w2 := med["nd.w1.512x512"], med["nd.w2.512x512"]
	t.m["nd.forward_us.512x512.w1"] = w1
	t.m["nd.forward_us.512x512.w2"] = w2
	t.m["nd.self_us.512x512"] = w1 - med["nd.lines.512x512"]
	t.m["nd.parallel_eff.512x512"] = w1 / (2 * w2)
	return nil
}

// parallel prices one 2^16 transform over 4 ranks on each wire, batches of
// 8 on the three dist wires, and the wires' own counters.
func (t *tracer) parallel() error {
	names := []string{"chan", "message", "mesh", "star", "shm"}
	ws := map[string]*world{}
	defer func() {
		for _, w := range ws {
			w.stop()
		}
	}()
	for _, name := range names {
		w, err := buildWorld(name, t.e.dir, distN)
		if err != nil {
			return err
		}
		ws[name] = w
	}
	rng := t.e.rng("trace.parallel")
	var src, ref [][]complex128
	for range distBatch {
		x := genComplex(rng, uniform, distN)
		src, ref = append(src, x), append(ref, refComplex(x))
	}
	dst := make([][]complex128, distBatch)
	for i := range dst {
		dst[i] = make([]complex128, distN)
	}
	hashes := map[int]uint64{}
	calls := map[string]int{}
	var singles []rung
	for _, name := range names {
		w := ws[name]
		var k int
		singles = append(singles, rung{name: "parallel.single." + name,
			prep: func() { k = calls[name] % len(src); calls[name]++ },
			call: func() error { _, err := w.tr.Forward(t.ctx, dst[0], src[k]); return err },
			check: func() error {
				if err := checkClose(dst[0], ref[k]); err != nil {
					return err
				}
				h := hashComplex(dst[0])
				if first, ok := hashes[k]; ok && first != h {
					return fmt.Errorf("input %d: output differs bitwise between wires", k)
				}
				hashes[k] = h
				return nil
			}})
	}
	before := map[string]ftfft.WireStats{}
	for _, name := range names {
		if ws[name].hub != nil {
			before[name] = ws[name].hub.WireStats()
		}
	}
	med := t.ladder("parallel.single", 0.08, singles...)
	for name, b := range before {
		a := ws[name].hub.WireStats()
		frames := float64(a.FramesDirect + a.FramesRelayed - b.FramesDirect - b.FramesRelayed)
		bytes := float64(a.BytesDirect + a.BytesRelayed - b.BytesDirect - b.BytesRelayed)
		t.m["mpi.frames_per_op."+name] = frames / float64(calls[name])
		t.m["mpi.bytes_per_op."+name] = bytes / float64(calls[name])
		if name != "shm" {
			t.m["mpi.relayed_frac."+name] = float64(a.FramesRelayed-b.FramesRelayed) / max(frames, 1)
		}
	}
	for _, name := range names {
		t.m["parallel.single_us."+name] = med["parallel.single."+name]
	}
	for _, name := range []string{"mesh", "star", "shm"} {
		t.m["mpi.wire_us."+name] = med["parallel.single."+name] - med["parallel.single.message"]
	}

	var batches []rung
	for _, name := range distWorlds {
		w := ws[name]
		batches = append(batches, rung{name: "parallel.batch8." + name,
			call: func() error { _, err := w.tr.ForwardBatch(t.ctx, dst, src); return err },
			check: func() error {
				for i := range dst {
					if err := checkClose(dst[i], ref[i]); err != nil {
						return fmt.Errorf("item %d: %w", i, err)
					}
				}
				return nil
			}})
	}
	med = t.ladder("parallel.batch8", 0.08, batches...)
	for _, name := range distWorlds {
		b := med["parallel.batch8."+name]
		t.m["parallel.batch8_us."+name] = b
		t.m["parallel.pipeline_gain."+name] = distBatch * t.m["parallel.single_us."+name] / b
	}
	t.m["mpi.max_epochs_in_flight.mesh"] = float64(ws["mesh"].hub.WireStats().MaxEpochsInFlight)
	t.m["mpi.max_epochs_in_flight.shm"] = float64(ws["shm"].hub.WireStats().MaxEpochsInFlight)

	// Allocations per transform, process-wide (the in-process worker ranks
	// included), on the wires TestWireRecvAllocs budgets: its "chan" row is
	// the message-only chan wire.
	for metric, name := range map[string]string{"chan": "message", "mesh": "mesh", "shm": "shm"} {
		const n = 20
		a, err := allocsPer(n, func() error { _, err := ws[name].tr.Forward(t.ctx, dst[0], src[0]); return err })
		if err != nil {
			return err
		}
		t.m["mpi.allocs_per_op."+metric] = a
	}
	return nil
}

// allocsPer returns the heap allocations per call of fn over n calls.
func allocsPer(n int, fn func() error) (float64, error) {
	if err := fn(); err != nil { // warm
		return 0, err
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for range n {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), nil
}

// serve prices the served round trip against the local transform it wraps,
// then offers the serve mix at the lowest and the reference ladder rates.
func (t *tracer) serve() error {
	w, err := newServe(t.e, false)
	if err != nil {
		return err
	}
	s := w.(*serveW)
	defer s.close()
	if err := s.setup(); err != nil {
		return err
	}
	var rungs []rung
	rtt := map[int]int{}
	for _, n := range []int{1 << 8, 1 << 12} {
		key := slices.IndexFunc(s.keys[:s.nHot], func(k serveKey) bool {
			return k.n == n && !k.real && k.dims == nil && k.prot == ftfft.OnlineABFTMemory
		})
		rtt[n] = key
		in := s.inputs[key][0]
		local, err := ftfft.New(n, ftfft.WithProtection(ftfft.OnlineABFTMemory))
		if err != nil {
			return err
		}
		r := serveReq{key: key, corrupt: -1}
		ldst := make([]complex128, n)
		var dst []complex128
		var rep ftfft.Report
		rungs = append(rungs,
			rung{name: fmt.Sprintf("serve.rtt.n%d", n),
				call: func() (err error) { dst, rep, err = s.send(s.clients[0], r); return err },
				check: func() error {
					_, err := s.check(r, dst, rep)
					s.release(dst)
					return err
				}},
			rung{name: fmt.Sprintf("serve.local.n%d", n),
				call:  func() error { _, err := local.Forward(t.ctx, ldst, in.src); return err },
				check: closeTo(ldst, in.want)})
	}
	med := t.ladder("serve.rtt", 0.04, rungs...)
	for _, n := range []int{1 << 8, 1 << 12} {
		r, l := med[fmt.Sprintf("serve.rtt.n%d", n)], med[fmt.Sprintf("serve.local.n%d", n)]
		t.m[fmt.Sprintf("serve.rtt_us.n%d", n)] = r
		t.m[fmt.Sprintf("serve.overhead_us.n%d", n)] = r - l
	}
	req := serveReq{key: rtt[1<<12], corrupt: -1}
	a, err := allocsPer(200, func() error {
		dst, _, err := s.send(s.clients[0], req)
		s.release(dst)
		return err
	})
	if err != nil {
		return err
	}
	t.m["serve.allocs_per_req"] = a

	builds0, evictions0, _ := s.srv.CacheStats()
	var struck0 int64
	for _, c := range s.clients {
		struck0 += c.struck.Load()
	}
	rng := t.e.rng("trace.serve")
	d := time.Duration(0.07 * float64(t.budget))
	low := s.runOpen(rng, serveRates[0], d, t.o, t.log)
	ref := s.runOpen(rng, serveRates[serveRefRate], d, t.o, t.log)
	builds1, evictions1, _ := s.srv.CacheStats()
	var struck int64
	for _, c := range s.clients {
		struck += c.struck.Load()
	}
	struck -= struck0
	t.m["serve.wait_us.p99"] = 1000 * (percentileMS(ref.lats(), 0.99) - percentileMS(low.lats(), 0.99))
	t.m["serve.gen_late_us.p99"] = 1000 * percentileMS(ref.late, 0.99)
	reqs := float64(len(low.late) + len(ref.late))
	t.m["serve.cache_builds"] = float64(builds1 - builds0)
	t.m["serve.cache_evictions"] = float64(evictions1 - evictions0)
	t.m["serve.cache_hit_frac"] = 1 - float64(builds1-builds0)/reqs
	t.m["serve.repair_frac"] = float64(low.repaired+ref.repaired) / float64(max(struck, 1))
	return nil
}

// tune prices planning: building local's plans (all but the 2^20 one)
// without and with measured tuning, and the spread between the slowest and
// the fastest candidate of each tuner knob, each timed from outside.
func (t *tracer) tune() error {
	build := func(mode ftfft.TuningMode) (float64, error) {
		ftfft.ForgetWisdom()
		defer ftfft.ForgetWisdom()
		t0 := time.Now()
		for _, p := range localPlans {
			if p.n > 1<<18 {
				continue
			}
			opts := []ftfft.Option{ftfft.WithProtection(p.prot), ftfft.WithTuning(mode)}
			var err error
			switch {
			case p.real:
				_, err = ftfft.NewReal(p.n, opts...)
			case p.dims != nil:
				_, err = ftfft.New(p.n, append(opts, ftfft.WithDims(p.dims...), ftfft.WithRanks(runtime.NumCPU()))...)
			default:
				_, err = ftfft.New(p.n, opts...)
			}
			if err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / 1e6, nil
	}
	var err error
	if t.m["tune.build_ms.estimate"], err = build(ftfft.TuneEstimate); err != nil {
		return err
	}
	if t.m["tune.build_ms.measured"], err = build(ftfft.TuneMeasured); err != nil {
		return err
	}

	rng := t.e.rng("trace.tune")
	spread := func(med map[string]float64) float64 {
		lo, hi := math.Inf(1), 0.0
		for _, v := range med {
			lo, hi = min(lo, v), max(hi, v)
		}
		return hi / lo
	}
	plans := func(group string, n int, mk func(i int) (*fft.Plan, error), count int) error {
		x := genComplex(rng, uniform, n)
		ref := refComplex(x)
		var rungs []rung
		for i := range count {
			p, err := mk(i)
			if err != nil {
				return err
			}
			dst := make([]complex128, n)
			rungs = append(rungs, rung{name: fmt.Sprintf("%s.%d", group, i), call: func() error { p.Execute(dst, x); return nil }, check: closeTo(dst, ref)})
		}
		t.m[group] = spread(t.ladder(group, 0.02, rungs...))
		return nil
	}
	kernels := []fft.Kernel{fft.KernelFlat, fft.KernelRecursive}
	if err := plans("tune.spread.kernel", 1<<16, func(i int) (*fft.Plan, error) { return fft.NewPlanKernel(1<<16, fft.Forward, kernels[i]) }, len(kernels)); err != nil {
		return err
	}
	convs := fft.ConvCandidates(4099)
	if err := plans("tune.spread.conv", 4099, func(i int) (*fft.Plan, error) {
		return fft.NewPlanConfig(4099, fft.Forward, fft.PlanConfig{ConvLen: func(int) int { return convs[i] }})
	}, len(convs)); err != nil {
		return err
	}

	x := genComplex(rng, uniform, 512*512)
	ref := ref2D(x, 512, 512)
	var rungs []rung
	for i, te := range nd.TileLadder() {
		p, err := nd.New([]int{512, 512}, nd.Config{Core: cfgMem, TileElems: te})
		if err != nil {
			return err
		}
		dst := make([]complex128, len(x))
		rungs = append(rungs, rung{name: fmt.Sprintf("tune.spread.tile.%d", i), call: func() error { _, err := p.Forward(t.ctx, dst, x); return err }, check: closeTo(dst, ref)})
	}
	t.m["tune.spread.tile"] = spread(t.ladder("tune.tile", 0.03, rungs...))

	src, dst := make([][]complex128, distBatch), make([][]complex128, distBatch)
	for i := range src {
		src[i], dst[i] = genComplex(rng, uniform, distN), make([]complex128, distN)
	}
	rungs = nil
	for _, win := range []int{1, 2, 4} {
		w, err := buildWorld("chan", t.e.dir, distN, ftfft.WithBatchWindow(win))
		if err != nil {
			return err
		}
		defer w.stop()
		rungs = append(rungs, rung{name: fmt.Sprintf("tune.spread.window.%d", win), call: func() error { _, err := w.tr.ForwardBatch(t.ctx, dst, src); return err }})
	}
	t.m["tune.spread.window"] = spread(t.ladder("tune.window", 0.03, rungs...))
	return nil
}

// overhead prices tracing itself: the chosen workload's throughput with
// every op recorded as a span against without, in alternating slices.
func (t *tracer) overhead(def workloadDef) error {
	w, err := def.build(t.e, false)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setup(); err != nil {
		return err
	}
	slice := time.Duration(0.15 * float64(t.budget) / 4)
	var plain, traced []float64
	for range 2 {
		for _, log := range []*spanLog{nil, t.log} {
			o := w.run(slice, log)
			t.o.attempted += o.attempted
			t.o.failed += o.failed
			t.o.failures = append(t.o.failures, o.failures...)
			if log == nil {
				plain = append(plain, o.metrics["throughput_gflops"])
			} else {
				traced = append(traced, o.metrics["throughput_gflops"])
			}
		}
	}
	p := median(plain)
	t.m["trace.overhead_pct"] = 100 * (p - median(traced)) / p
	return nil
}
