package ftfft_test

import (
	"context"
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftfft"
	"ftfft/internal/workload"
)

// startServe opens a unix-socket server in a test-scoped directory and tears
// it down with the test.
func startServe(t *testing.T, cfg ftfft.ServerConfig) (*ftfft.Server, string, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "ftfft.sock")
	srv, err := ftfft.ListenServe("unix", sock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, "unix", sock
}

func dialServe(t *testing.T, network, addr string) *ftfft.Client {
	t.Helper()
	c, err := ftfft.Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func randomReal(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// serveCase is one (op, geometry, protection) point of the service surface,
// with the locally computed reference output and report.
type serveCase struct {
	name string
	run  func(ctx context.Context, c *ftfft.Client) (any, ftfft.Report, error)

	want    any // []complex128 or []float64, computed locally
	wantRep ftfft.Report
}

// TestServeBitIdentical is the service acceptance test: concurrent clients
// submitting mixed sizes, geometries and protection schemes must receive
// bit-for-bit the output a local Transform produces for the same request —
// the server is a transport around the same protected engine, never a
// different numeric path. The injected-faults subtest extends the guarantee
// under transform-level soft errors: server and local reference run
// identical fault schedules, so outputs and fault Reports must match
// exactly, corrections included.
func TestServeBitIdentical(t *testing.T) {
	ctx := context.Background()

	type geom struct {
		name string
		n    int
		prot ftfft.Protection
		opts []ftfft.Option
	}
	geoms := []geom{
		{"n256-plain", 256, ftfft.None, nil},
		{"n1024-online-memory", 1024, ftfft.OnlineABFTMemory, nil},
		{"dims32x32-online", 1024, ftfft.OnlineABFT, []ftfft.Option{ftfft.WithDims(32, 32)}},
		{"dims16x16x4-plain", 1024, ftfft.None, []ftfft.Option{ftfft.WithDims(16, 16, 4)}},
	}

	var cases []serveCase
	for _, g := range geoms {
		src := workload.Uniform(int64(g.n)+int64(g.prot), g.n)
		opts := append([]ftfft.Option{ftfft.WithProtection(g.prot)}, g.opts...)
		local, err := ftfft.New(g.n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		fwd := make([]complex128, g.n)
		fwdRep, err := local.Forward(ctx, fwd, src)
		if err != nil {
			t.Fatal(err)
		}
		inv := make([]complex128, g.n)
		invRep, err := local.Inverse(ctx, inv, src)
		if err != nil {
			t.Fatal(err)
		}
		n := g.n
		cases = append(cases,
			serveCase{
				name: g.name + "-forward", want: fwd, wantRep: fwdRep,
				run: func(ctx context.Context, c *ftfft.Client) (any, ftfft.Report, error) {
					dst := make([]complex128, n)
					rep, err := c.Forward(ctx, dst, src, opts...)
					return dst, rep, err
				},
			},
			serveCase{
				name: g.name + "-inverse", want: inv, wantRep: invRep,
				run: func(ctx context.Context, c *ftfft.Client) (any, ftfft.Report, error) {
					dst := make([]complex128, n)
					rep, err := c.Inverse(ctx, dst, src, opts...)
					return dst, rep, err
				},
			},
		)
	}

	// Real transforms: forward to the half spectrum and back.
	const rn = 512
	rsrc := randomReal(11, rn)
	rlocal, err := ftfft.NewReal(rn, ftfft.WithProtection(ftfft.OnlineABFT))
	if err != nil {
		t.Fatal(err)
	}
	spec := make([]complex128, rn/2+1)
	specRep, err := rlocal.Forward(ctx, spec, rsrc)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]float64, rn)
	sampRep, err := rlocal.Inverse(ctx, samples, spec)
	if err != nil {
		t.Fatal(err)
	}
	ropts := []ftfft.Option{ftfft.WithProtection(ftfft.OnlineABFT)}
	cases = append(cases,
		serveCase{
			name: "real512-forward", want: spec, wantRep: specRep,
			run: func(ctx context.Context, c *ftfft.Client) (any, ftfft.Report, error) {
				dst := make([]complex128, rn/2+1)
				rep, err := c.RealForward(ctx, dst, rsrc, ropts...)
				return dst, rep, err
			},
		},
		serveCase{
			name: "real512-inverse", want: samples, wantRep: sampRep,
			run: func(ctx context.Context, c *ftfft.Client) (any, ftfft.Report, error) {
				dst := make([]float64, rn)
				rep, err := c.RealInverse(ctx, dst, spec, ropts...)
				return dst, rep, err
			},
		},
	)

	_, network, addr := startServe(t, ftfft.ServerConfig{})

	// Phase 1: 8 concurrent clients, each running the full mixed case set
	// twice (the second round exercises the plan-cache hit path).
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := ftfft.Dial(network, addr)
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", k, err)
				return
			}
			defer c.Close()
			for round := 0; round < 2; round++ {
				for _, sc := range cases {
					got, rep, err := sc.run(ctx, c)
					if err != nil {
						errs <- fmt.Errorf("client %d round %d %s: %v", k, round, sc.name, err)
						return
					}
					if rep != sc.wantRep {
						errs <- fmt.Errorf("client %d round %d %s: report %+v, want %+v", k, round, sc.name, rep, sc.wantRep)
						return
					}
					switch want := sc.want.(type) {
					case []complex128:
						for i, w := range want {
							if g := got.([]complex128)[i]; g != w {
								errs <- fmt.Errorf("client %d round %d %s: differs at %d: %v vs %v", k, round, sc.name, i, g, w)
								return
							}
						}
					case []float64:
						for i, w := range want {
							if g := got.([]float64)[i]; g != w {
								errs <- fmt.Errorf("client %d round %d %s: differs at %d: %v vs %v", k, round, sc.name, i, g, w)
								return
							}
						}
					}
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Phase 2 (sequential — fault schedules fire once globally): the server
	// injects transform-level faults via ServerConfig.Injector, the local
	// reference runs an identical schedule, so both repair identically and
	// the outputs stay bit-for-bit equal — with matching nonzero Reports.
	t.Run("injected-faults", func(t *testing.T) {
		mkFaults := func() []ftfft.Fault {
			return []ftfft.Fault{
				{Site: ftfft.SiteSubFFT1, Rank: ftfft.AnyRank, Occurrence: 3, Index: -1, Mode: ftfft.AddConstant, Value: 7},
				{Site: ftfft.SiteInputMemory, Rank: ftfft.AnyRank, Index: 100, Mode: ftfft.SetConstant, Value: -5},
			}
		}
		const n = 1024
		x := workload.Uniform(21, n)

		refSched := ftfft.NewFaultSchedule(9, mkFaults()...)
		local, err := ftfft.New(n,
			ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithInjector(refSched))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, n)
		wantRep, err := local.Forward(ctx, want, append([]complex128(nil), x...))
		if err != nil {
			t.Fatal(err)
		}
		if wantRep.MemCorrections == 0 && wantRep.CompRecomputations == 0 {
			t.Fatalf("reference schedule repaired nothing: %+v", wantRep)
		}

		srvSched := ftfft.NewFaultSchedule(9, mkFaults()...)
		_, network, addr := startServe(t, ftfft.ServerConfig{Injector: srvSched})
		c := dialServe(t, network, addr)
		got := make([]complex128, n)
		gotRep, err := c.Forward(ctx, got, append([]complex128(nil), x...),
			ftfft.WithProtection(ftfft.OnlineABFTMemory))
		if err != nil {
			t.Fatal(err)
		}
		if !srvSched.AllFired() {
			t.Fatal("server-side faults did not fire")
		}
		if gotRep != wantRep {
			t.Fatalf("served faulty report %+v, local %+v", gotRep, wantRep)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("faulty served output differs at %d: %v vs %v", i, got[i], want[i])
			}
		}
	})
}

// TestServeWireFaultContract pins the repair-or-reject guarantee at the
// public surface: a single corrupted element in transit is repaired
// (counted in the Report, output within round-off of the clean result), and
// corruption beyond the §5 code's reach is rejected with ErrUncorrectable —
// never a silently wrong payload.
func TestServeWireFaultContract(t *testing.T) {
	ctx := context.Background()
	const n = 1024
	src := workload.Uniform(5, n)

	local, err := ftfft.New(n, ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	if _, err := local.Forward(ctx, want, src); err != nil {
		t.Fatal(err)
	}

	_, network, addr := startServe(t, ftfft.ServerConfig{})
	c := dialServe(t, network, addr)
	opts := []ftfft.Option{ftfft.WithProtection(ftfft.OnlineABFTMemory)}

	// One corrupted element: repaired server-side (checksum repair is exact
	// to round-off, not bitwise — the transform amplifies that ulp).
	corrupt := func(k int) func([]byte) {
		return func(payload []byte) {
			for e := 0; e < k; e++ {
				off := e * 16 * (len(payload) / (16 * k))
				payload[off] ^= 0x40
				payload[off+7] ^= 0x01
			}
		}
	}
	c.InjectWireFaults(corrupt(1))
	dst := make([]complex128, n)
	rep, err := c.Forward(ctx, dst, src, opts...)
	if err != nil {
		t.Fatalf("single-element corruption not repaired: %v", err)
	}
	if rep.Detections != 1 || rep.MemCorrections != 1 || rep.Uncorrectable {
		t.Fatalf("repair report %+v", rep)
	}
	tol := 1e-9 * float64(n)
	for i := range want {
		if d := cmplx.Abs(dst[i] - want[i]); d > tol {
			t.Fatalf("repaired output off at %d by %g", i, d)
		}
	}

	// Three corrupted elements: beyond single-error correction — the server
	// must reject with an uncorrectable error frame, and the connection
	// survives for the next (clean) request.
	c.InjectWireFaults(corrupt(3))
	rep, err = c.Forward(ctx, dst, src, opts...)
	if !errors.Is(err, ftfft.ErrUncorrectable) {
		t.Fatalf("multi-element corruption: err = %v, want ErrUncorrectable", err)
	}
	if !rep.Uncorrectable {
		t.Fatalf("reject report %+v lacks Uncorrectable", rep)
	}

	c.InjectWireFaults(nil)
	if _, err := c.Forward(ctx, dst, src, opts...); err != nil {
		t.Fatalf("clean request after reject: %v", err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("post-reject output differs at %d", i)
		}
	}
}

// TestServeClientOptionRejection pins the client/server option split:
// execution-side options are rejected client-side instead of being silently
// dropped on the wire.
func TestServeClientOptionRejection(t *testing.T) {
	_, network, addr := startServe(t, ftfft.ServerConfig{})
	c := dialServe(t, network, addr)
	ctx := context.Background()
	src := workload.Uniform(3, 64)
	dst := make([]complex128, 64)

	for _, tc := range []struct {
		name string
		opt  ftfft.Option
	}{
		{"ranks", ftfft.WithRanks(4)},
		{"transport", ftfft.WithTransport(ftfft.MessageOnlyTransport(2))},
		{"workers", ftfft.WithWorkers(2)},
		{"injector", ftfft.WithInjector(ftfft.NewFaultSchedule(1))},
		{"eta", ftfft.WithEtaScale(2)},
		{"retries", ftfft.WithMaxRetries(5)},
	} {
		if _, err := c.Forward(ctx, dst, src, tc.opt); err == nil {
			t.Errorf("%s: server-side option accepted by client", tc.name)
		}
	}
	// Geometry options are rejected on the real path.
	rdst := make([]complex128, 33)
	if _, err := c.RealForward(ctx, rdst, randomReal(1, 64), ftfft.WithDims(8, 8)); err == nil {
		t.Error("WithDims accepted by RealForward")
	}
	// The connection is still healthy.
	if _, err := c.Forward(ctx, dst, src); err != nil {
		t.Fatalf("clean request after rejections: %v", err)
	}
}

// TestServeGoroutineBounded holds the tentpole's burst-degradation promise
// to a number: under a 64-client burst of concurrent requests, the process
// gains goroutines only for the structural parts (one reader per connection
// on each side, one submitter per in-flight call) plus the MaxInFlight
// handler bound — never a handler per queued request.
func TestServeGoroutineBounded(t *testing.T) {
	const (
		clients     = 64
		perClient   = 4 // concurrent requests per client
		maxInFlight = 4
		workers     = 2
		n           = 4096
	)
	base := runtime.NumGoroutine()
	_, network, addr := startServe(t, ftfft.ServerConfig{
		MaxInFlight: maxInFlight,
		Workers:     workers,
	})

	// Sampler: record the goroutine high-water mark during the burst.
	var peak atomic.Int64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := int64(runtime.NumGoroutine())
			for {
				p := peak.Load()
				if g <= p || peak.CompareAndSwap(p, g) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	src := workload.Uniform(13, n)
	opts := []ftfft.Option{ftfft.WithProtection(ftfft.OnlineABFTMemory)}
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := ftfft.Dial(network, addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			var cwg sync.WaitGroup
			for r := 0; r < perClient; r++ {
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					dst := make([]complex128, n)
					if _, err := c.Forward(context.Background(), dst, src, opts...); err != nil {
						errs <- err
					}
				}()
			}
			cwg.Wait()
		}()
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Structural budget: one submitter goroutine per in-flight call
	// (client-side), and per client one test wrapper goroutine, one client
	// read loop and one server reader for its connection; plus the bounded
	// handler pool, the private exec workers, and slack for the accept
	// loop, test scaffolding and runtime helpers. A handler-per-queued-
	// request server would exceed this by up to
	// clients·perClient − maxInFlight ≈ 250 goroutines.
	budget := int64(base + clients*perClient + 3*clients + maxInFlight + workers + 40)
	if p := peak.Load(); p > budget {
		t.Fatalf("goroutine peak %d exceeds structural budget %d (base %d)", p, budget, base)
	}

	// And the burst leaves nothing behind once clients disconnect.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+workers+10 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base+workers+10 {
		t.Fatalf("goroutines did not drain after the burst: %d, base %d", g, base)
	}
}
