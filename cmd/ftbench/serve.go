package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ftfft"
)

// serveRates are the frozen open-loop offered rates of the serve workload,
// in requests per second: about 5, 15 and 25% of the closed-loop capacity
// measured on the reference host, and 10, 25 and 40% of the rate at which
// its open-loop latency ran away (see README.md).
var serveRates = []float64{700, 1750, 2800}

const (
	// serveRefRate indexes the reference rate, whose p99 the traced run
	// compares with the lowest rate's (serve.wait_us.p99).
	serveRefRate = 1
	// servePhase is the length of one phase of the serve run.
	servePhase = 400 * time.Millisecond
	// One request in corruptEvery has one element corrupted on the wire by
	// the client; the server must repair it.
	corruptEvery = 64
	hotShare     = 0.95
	servePool    = 4 // inputs per hot key
	// requestTimeout bounds one request, so a lost response fails its op
	// instead of hanging the run.
	requestTimeout = 30 * time.Second
)

// serveKey is one plan key of the server's cache.
type serveKey struct {
	n    int
	real bool
	dims []int
	prot ftfft.Protection
}

func (k serveKey) flops() float64 {
	if k.real {
		return flopsComplex(k.n) / 2
	}
	return flopsComplex(k.n)
}

func (k serveKey) outLen() int {
	if k.real {
		return k.n/2 + 1
	}
	return k.n
}

// hotKeys are the 14 plan keys that draw 95% of requests.
func hotKeys() []serveKey {
	var ks []serveKey
	for _, n := range []int{1 << 8, 1 << 10, 1 << 12, 1 << 14} {
		for _, p := range []ftfft.Protection{ftfft.None, ftfft.OnlineABFT, ftfft.OnlineABFTMemory} {
			ks = append(ks, serveKey{n: n, prot: p})
		}
	}
	return append(ks,
		serveKey{n: 1 << 12, real: true, prot: ftfft.OnlineABFTMemory},
		serveKey{n: 64 * 64, dims: []int{64, 64}, prot: ftfft.OnlineABFTMemory})
}

// coldLengths are the 2^a·3^b·5^c lengths in [256, 8192] that are not powers
// of two: the cold tail, each under one of three schemes, so the tail spans
// far more plan keys than the server's 64-entry cache holds.
func coldLengths() []int {
	var ns []int
	for n := 256; n <= 8192; n++ {
		m := n
		for _, f := range []int{2, 3, 5} {
			for m%f == 0 {
				m /= f
			}
		}
		if m == 1 && n&(n-1) != 0 {
			ns = append(ns, n)
		}
	}
	return ns
}

var coldProts = []ftfft.Protection{ftfft.None, ftfft.OnlineABFT, ftfft.OnlineABFTMemory}

// serveInput is one generated request payload and the output it must produce.
type serveInput struct {
	src  []complex128
	rsrc []float64
	want []complex128 // a local plan's output (hot keys) or the raw-kernel reference (cold)
}

// serveReq is one generated request.
type serveReq struct {
	key     int // index into s.keys: hot keys first, then the cold ones
	in      int
	corrupt int64         // ≥ 0: corrupt one element (this value modulo the payload length)
	gap     time.Duration // time since the previous arrival
}

type serveW struct {
	e       *env
	keys    []serveKey
	nHot    int
	inputs  [][]serveInput // per key
	srv     *ftfft.Server
	clients []*serveClient
	bufs    map[int]*sync.Pool // output buffers by length
}

// serveClient is one client connection and its queue of pending wire
// corruptions: the hook corrupts the next frame the client writes after a
// corruption was queued.
type serveClient struct {
	c       *ftfft.Client
	pending chan int64
	struck  atomic.Int64
}

func newServe(e *env, probe bool) (workload, error) {
	s := &serveW{e: e, keys: hotKeys(), bufs: map[int]*sync.Pool{}}
	s.nHot = len(s.keys)
	if !probe {
		for _, n := range coldLengths() {
			for _, p := range coldProts {
				s.keys = append(s.keys, serveKey{n: n, prot: p})
			}
		}
	}
	rng := e.rng("serve.inputs")
	ctx := context.Background()
	coldIn := map[int]serveInput{} // one input per cold length, shared by its schemes
	for i, k := range s.keys {
		if _, ok := s.bufs[k.outLen()]; !ok {
			n := k.outLen()
			s.bufs[n] = &sync.Pool{New: func() any { b := make([]complex128, n); return &b }}
		}
		if i >= s.nHot {
			in, ok := coldIn[k.n]
			if !ok {
				x := genComplex(rng, ordinary[rng.Intn(len(ordinary))], k.n)
				in = serveInput{src: x, want: refComplex(x)}
				coldIn[k.n] = in
			}
			s.inputs = append(s.inputs, []serveInput{in})
			continue
		}
		size := servePool
		if probe {
			size = 1
		}
		var ins []serveInput
		for j := range size {
			f := ordinary[j%len(ordinary)]
			var in serveInput
			if k.real {
				in.rsrc = genReal(rng, f, k.n)
			} else {
				in.src = genComplex(rng, f, k.n)
			}
			if !probe {
				want, err := localOutput(ctx, k, in)
				if err != nil {
					return nil, err
				}
				in.want = want
			}
			ins = append(ins, in)
		}
		s.inputs = append(s.inputs, ins)
	}
	return s, nil
}

// localOutput is what a local plan of the same key computes: served hot-key
// outputs must match it bit for bit.
func localOutput(ctx context.Context, k serveKey, in serveInput) ([]complex128, error) {
	out := make([]complex128, k.outLen())
	if k.real {
		tr, err := ftfft.NewReal(k.n, ftfft.WithProtection(k.prot))
		if err != nil {
			return nil, err
		}
		_, err = tr.Forward(ctx, out, in.rsrc)
		return out, err
	}
	opts := []ftfft.Option{ftfft.WithProtection(k.prot)}
	if k.dims != nil {
		opts = append(opts, ftfft.WithDims(k.dims...))
	}
	tr, err := ftfft.New(k.n, opts...)
	if err != nil {
		return nil, err
	}
	_, err = tr.Forward(ctx, out, append([]complex128(nil), in.src...))
	return out, err
}

// setup starts the server, dials one client per CPU, and sends one request
// per hot key (each builds its plan).
func (s *serveW) setup() error {
	var err error
	if s.srv, err = ftfft.ListenServe("unix", filepath.Join(s.e.dir, "serve.sock"), ftfft.ServerConfig{}); err != nil {
		return err
	}
	for range runtime.NumCPU() {
		c, err := ftfft.Dial("unix", s.srv.Addr().String())
		if err != nil {
			return err
		}
		sc := &serveClient{c: c, pending: make(chan int64, 1024)}
		c.InjectWireFaults(sc.hook)
		s.clients = append(s.clients, sc)
	}
	for k := range s.nHot {
		r := serveReq{key: k, corrupt: -1}
		dst, rep, err := s.send(s.clients[0], r)
		if err == nil && s.inputs[k][0].want != nil {
			_, err = s.check(r, dst, rep)
		}
		s.release(dst)
		if err != nil {
			return fmt.Errorf("first call on %+v: %w", s.keys[k], err)
		}
	}
	return nil
}

// hook corrupts one element of the frame being written if a corruption is
// pending: it adds 2 to 10 to the element's real part, the paper's additive
// fault model. (A ×2^16 exponent-bit flip is not always repaired: on tone
// payloads, whose checksum sums nearly cancel, the repaired element's
// round-off fails the server's relative re-verification and the request is
// rejected as uncorrectable.)
func (sc *serveClient) hook(payload []byte) {
	select {
	case v := <-sc.pending:
		e := int(v%int64(len(payload)/16)) * 16
		x := math.Float64frombits(binary.LittleEndian.Uint64(payload[e:]))
		binary.LittleEndian.PutUint64(payload[e:], math.Float64bits(x+2+float64(v>>40%9)))
		sc.struck.Add(1)
	default:
	}
}

// send sends one request and waits for its response, which it returns in a
// pooled buffer (give it back with release).
func (s *serveW) send(sc *serveClient, r serveReq) ([]complex128, ftfft.Report, error) {
	k, in := s.keys[r.key], s.inputs[r.key][r.in]
	dst := *s.bufs[k.outLen()].Get().(*[]complex128)
	if r.corrupt >= 0 {
		sc.pending <- r.corrupt
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var rep ftfft.Report
	var err error
	switch {
	case k.real:
		rep, err = sc.c.RealForward(ctx, dst, in.rsrc, ftfft.WithProtection(k.prot))
	case k.dims != nil:
		rep, err = sc.c.Forward(ctx, dst, in.src, ftfft.WithProtection(k.prot), ftfft.WithDims(k.dims...))
	default:
		rep, err = sc.c.Forward(ctx, dst, in.src, ftfft.WithProtection(k.prot))
	}
	return dst, rep, err
}

func (s *serveW) release(dst []complex128) {
	s.bufs[len(dst)].Put(&dst)
}

// check checks one response: a hot key's output must equal the local plan's
// bit for bit, unless the server repaired a wire fault in the request (then,
// like a cold key's, it must be within tolerance of the reference). It
// reports whether the response was repaired.
func (s *serveW) check(r serveReq, dst []complex128, rep ftfft.Report) (bool, error) {
	want := s.inputs[r.key][r.in].want
	repaired := rep.MemCorrections > 0
	if r.key >= s.nHot || repaired {
		return repaired, checkClose(dst, want)
	}
	if !bitsEqual(dst, want) {
		return false, fmt.Errorf("served output differs bitwise from the local plan")
	}
	return false, nil
}

func bitsEqual(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// nextReq draws the next request at offered rate: an exponential gap
// (Poisson arrivals), a hot key with probability hotShare, an input, and a
// wire corruption one time in corruptEvery.
func (s *serveW) nextReq(rng *rand.Rand, rate float64) serveReq {
	r := serveReq{corrupt: -1, gap: time.Duration(rng.ExpFloat64() / rate * float64(time.Second))}
	if rng.Float64() < hotShare || len(s.keys) == s.nHot {
		r.key = rng.Intn(s.nHot)
	} else {
		r.key = s.nHot + rng.Intn(len(s.keys)-s.nHot)
	}
	r.in = rng.Intn(len(s.inputs[r.key]))
	if rng.Intn(corruptEvery) == 0 {
		r.corrupt = rng.Int63()
	}
	return r
}

// waitUntil sleeps until t. The Go runtime rounds every timer shorter than a
// millisecond up to one (its poller waits in whole milliseconds), which
// would bunch Poisson arrivals into millisecond bursts; a nanosleep on the
// generator's own thread, with that thread's timer slack cut to 1 µs (see
// lockGenerator), keeps their spacing.
func waitUntil(t time.Time) {
	for wait := time.Until(t); wait > 0; wait = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) loops
	}
}

// lockGenerator pins the calling goroutine to its thread and cuts the
// thread's timer slack to 1 µs. Undo with runtime.UnlockOSThread.
func lockGenerator() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0) // best effort: the default slack is only less precise
}

// phase is one stretch of load, drained before the next phase starts.
type phase struct {
	d           time.Duration
	recs        []opRec         // answered and checked requests, by plan key
	late        []time.Duration // open loop: how late the generator fired each request
	outstanding int             // open loop: requests not yet answered when arrivals ended
	repaired    int
}

// lats returns the latencies of a phase's answered requests.
func (ph *phase) lats() []time.Duration {
	ds := make([]time.Duration, len(ph.recs))
	for i, r := range ph.recs {
		ds[i] = r.d
	}
	return ds
}

// issue sends r on sc and records its latency, after checking the response;
// failures go to o. mu guards ph and o.
//
// Latency is timed from the call into the client, not from the request's
// due time: on the reference host the generator's lateness (its thread's
// wake-ups, reported on its own) made the due-time p99 at the reference rate
// vary by 13 to 21% between runs, against 5% from the send.
func (s *serveW) issue(ph *phase, mu *sync.Mutex, sc *serveClient, r serveReq, o *outcome, spans *spanLog) {
	start := time.Now()
	dst, rep, err := s.send(sc, r)
	lat := time.Since(start)
	if spans != nil {
		spans.add("serve.request", 0, start, lat)
	}
	var repaired bool
	if err == nil {
		repaired, err = s.check(r, dst, rep)
	}
	s.release(dst)
	mu.Lock()
	defer mu.Unlock()
	if err != nil {
		o.fail("serve %+v: %v (report %+v)", s.keys[r.key], err, rep)
		return
	}
	ph.recs = append(ph.recs, opRec{job: r.key, d: lat, flops: s.keys[r.key].flops()})
	if repaired {
		ph.repaired++
	}
}

// runOpen offers Poisson arrivals at rate for d from one generator
// goroutine, spread round-robin over the clients, then waits for every
// answer. Each request runs in its own goroutine: the open loop never waits
// for a reply before sending the next request.
func (s *serveW) runOpen(rng *rand.Rand, rate float64, d time.Duration, o *outcome, spans *spanLog) *phase {
	ph := &phase{d: d}
	lockGenerator()
	defer runtime.UnlockOSThread()
	var mu sync.Mutex
	var wg sync.WaitGroup
	issued := 0
	start := time.Now()
	due := start
	for i := 0; ; i++ {
		r := s.nextReq(rng, rate)
		due = due.Add(r.gap)
		if due.Sub(start) >= d {
			break
		}
		waitUntil(due)
		mu.Lock()
		ph.late = append(ph.late, time.Since(due))
		o.attempted++
		mu.Unlock()
		issued++
		wg.Add(1)
		go func(sc *serveClient) {
			defer wg.Done()
			s.issue(ph, &mu, sc, r, o, spans)
		}(s.clients[i%len(s.clients)])
	}
	mu.Lock()
	ph.outstanding = issued - len(ph.recs)
	mu.Unlock()
	wg.Wait()
	return ph
}

// runClosed drives the server at capacity for d: each client connection has
// one caller that sends its next request as soon as the last one returns.
func (s *serveW) runClosed(rng *rand.Rand, d time.Duration, o *outcome, spans *spanLog) *phase {
	ph := &phase{d: d}
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for _, sc := range s.clients {
		crng := rand.New(rand.NewSource(rng.Int63()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := s.nextReq(crng, 1)
				mu.Lock()
				o.attempted++
				mu.Unlock()
				s.issue(ph, &mu, sc, r, o, spans)
			}
		}()
	}
	wg.Wait()
	return ph
}

// phaseLatencyMS is the q-quantile latency of a set of phases: each phase's
// own quantile, then the median over phases, so a stretch of noise from
// outside the process that spoils a phase or two does not move it.
func phaseLatencyMS(phases []*phase, q float64) float64 {
	var xs []float64
	for _, ph := range phases {
		xs = append(xs, percentileMS(ph.lats(), q))
	}
	return median(xs)
}

// run interleaves the serve workload's phases, so every rate samples the
// whole run rather than one stretch of it: each round runs, for each
// open-loop rate, one phase at that rate and one closed-loop phase at
// capacity.
//
// The end-to-end metrics come from the closed-loop phases, pooled over the
// quietest of them (see quietShare). On the reference host (a 2-vCPU VM
// shared with other tenants) light-load latency is set by idle-CPU wake-ups,
// and in noisy stretches the open-loop p50 and p99 at the reference rate
// varied by 27 and 35% between runs; the latency of nproc callers at
// capacity, where the CPUs never idle, varied about as little as the
// closed-loop workloads' metrics. The open-loop latencies go to the log.
func (s *serveW) run(d time.Duration, spans *spanLog) *outcome {
	o := &outcome{metrics: map[string]float64{}}
	rng := s.e.rng("serve.ops")
	perRound := 2 * len(serveRates)
	rounds := max(1, int(d/(servePhase*time.Duration(perRound))))
	phaseD := d / time.Duration(rounds*perRound)
	open := make([][]*phase, len(serveRates))
	var closed []*phase
	for range rounds {
		for i, rate := range serveRates {
			open[i] = append(open[i], s.runOpen(rng, rate, phaseD, o, spans))
			closed = append(closed, s.runClosed(rng, phaseD, o, spans))
		}
	}
	for i, rate := range serveRates {
		var late []time.Duration
		outstanding := 0
		for _, ph := range open[i] {
			late = append(late, ph.late...)
			outstanding = max(outstanding, ph.outstanding)
		}
		o.note("open   %6.0f req/s: p50 %.3f ms, p99 %.3f ms, outstanding ≤ %d, generator late p99 %.3f ms",
			rate, phaseLatencyMS(open[i], 0.5), phaseLatencyMS(open[i], 0.99), outstanding, percentileMS(late, 0.99))
	}
	var rates []float64
	ws := make([][]opRec, len(closed))
	for i, ph := range closed {
		rates = append(rates, float64(len(ph.recs))/ph.d.Seconds())
		ws[i] = ph.recs
	}
	o.note("closed %6.0f req/s: p50 %.3f ms, p99 %.3f ms (median over all phases)", median(rates), phaseLatencyMS(closed, 0.5), phaseLatencyMS(closed, 0.99))
	quiet := quietest(ws)
	var lats []time.Duration
	var flops float64
	for _, w := range quiet {
		for _, r := range w {
			lats = append(lats, r.d)
			flops += r.flops
		}
	}
	if len(lats) == 0 {
		return o // no metrics: the run reports that none was measured
	}
	secs := float64(len(quiet)) * phaseD.Seconds()
	o.metrics["latency_p50_ms"] = percentileMS(lats, 0.50)
	o.metrics["latency_p99_ms"] = percentileMS(lats, 0.99)
	o.metrics["max_rate_rps"] = float64(len(lats)) / secs
	o.metrics["throughput_gflops"] = flops / secs / 1e9
	o.note("closed %6.0f req/s: p50 %.3f ms, p99 %.3f ms (the quietest %d of %d phases)", o.metrics["max_rate_rps"],
		o.metrics["latency_p50_ms"], o.metrics["latency_p99_ms"], len(quiet), len(closed))
	return o
}

func (s *serveW) close() {
	for _, sc := range s.clients {
		sc.c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}
