package ftfft_test

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"ftfft"
	"ftfft/internal/dft"
	"ftfft/internal/workload"
)

var allProtections = []ftfft.Protection{
	ftfft.None,
	ftfft.OfflineABFT, ftfft.OfflineABFTNaive,
	ftfft.OnlineABFT, ftfft.OnlineABFTNaive,
	ftfft.OnlineABFTMemory, ftfft.OnlineABFTMemoryNaive,
}

func maxAbsDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func maxAbs(a []complex128) float64 {
	var m float64
	for _, v := range a {
		if d := cmplx.Abs(v); d > m {
			m = d
		}
	}
	return m
}

// transformOnce plans a len(x)-point transform and runs one Forward (or
// Inverse) of a copy of x, returning the output, report and call error.
func transformOnce(t *testing.T, x []complex128, inverse bool, opts ...ftfft.Option) ([]complex128, ftfft.Report, error) {
	t.Helper()
	tr, err := ftfft.New(len(x), opts...)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, len(x))
	src := append([]complex128(nil), x...)
	if inverse {
		rep, err := tr.Inverse(bg, dst, src)
		return dst, rep, err
	}
	rep, err := tr.Forward(bg, dst, src)
	return dst, rep, err
}

func TestForwardMatchesDFTAllProtections(t *testing.T) {
	n := 512
	x := workload.Uniform(1, n)
	want := dft.Transform(x)
	tol := 1e-8 * float64(n) * (1 + maxAbs(want))
	for _, prot := range allProtections {
		tr, err := ftfft.New(n, ftfft.WithProtection(prot))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n || tr.Ranks() != 1 || tr.Protection() != prot {
			t.Fatalf("%v: accessors Len=%d Ranks=%d Protection=%v", prot, tr.Len(), tr.Ranks(), tr.Protection())
		}
		got := make([]complex128, n)
		rep, err := tr.Forward(bg, got, x)
		if err != nil {
			t.Fatalf("%v: %v", prot, err)
		}
		if !rep.Clean() {
			t.Errorf("%v: fault-free run not clean: %+v", prot, rep)
		}
		if d := maxAbsDiff(got, want); d > tol {
			t.Errorf("%v: diff %g", prot, d)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	n := 1024
	x := workload.Normal(2, n)
	for _, prot := range []ftfft.Protection{ftfft.None, ftfft.OnlineABFTMemory} {
		X, _, err := transformOnce(t, x, false, ftfft.WithProtection(prot))
		if err != nil {
			t.Fatal(err)
		}
		y, _, err := transformOnce(t, X, true, ftfft.WithProtection(prot))
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(y, x); d > 1e-9*float64(n)*(1+maxAbs(x)) {
			t.Errorf("%v: round trip diff %g", prot, d)
		}
	}
}

func TestInverseMatchesDirectIDFT(t *testing.T) {
	n := 256
	x := workload.Uniform(3, n)
	want := dft.Inverse(x)
	got, rep, err := transformOnce(t, x, true, ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil || !rep.Clean() {
		t.Fatalf("err=%v rep=%+v", err, rep)
	}
	if d := maxAbsDiff(got, want); d > 1e-9*float64(n)*(1+maxAbs(want)) {
		t.Fatalf("diff %g", d)
	}
}

func TestFaultInjectionRecoveryThroughPublicAPI(t *testing.T) {
	n := 1024
	x := workload.Uniform(4, n)
	want := dft.Transform(x)
	sched := ftfft.NewFaultSchedule(1,
		ftfft.Fault{Site: ftfft.SiteSubFFT1, Rank: ftfft.AnyRank, Occurrence: 3, Index: -1, Mode: ftfft.AddConstant, Value: 7},
		ftfft.Fault{Site: ftfft.SiteInputMemory, Rank: ftfft.AnyRank, Index: 100, Mode: ftfft.SetConstant, Value: -5},
	)
	got, rep, err := transformOnce(t, x, false, ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithInjector(sched))
	if err != nil {
		t.Fatalf("%v (%+v)", err, rep)
	}
	if !sched.AllFired() {
		t.Fatal("faults did not fire")
	}
	if rep.Clean() {
		t.Fatalf("expected recovery activity, got clean report")
	}
	if d := maxAbsDiff(got, want); d > 1e-7*float64(n)*(1+maxAbs(want)) {
		t.Fatalf("output wrong after recovery: %g (%+v)", d, rep)
	}
	if len(sched.Records()) != 2 {
		t.Fatalf("expected 2 injection records, got %d", len(sched.Records()))
	}
}

// TestParallelPlanPublicAPI runs the six-step parallel transform under every
// protection level with a parallel formulation and checks it against the
// direct DFT; the offline levels have none and must be rejected.
func TestParallelPlanPublicAPI(t *testing.T) {
	n, p := 4096, 8
	x := workload.Uniform(6, n)
	want := dft.Transform(x)
	for _, prot := range []ftfft.Protection{ftfft.None, ftfft.OnlineABFT, ftfft.OnlineABFTMemoryNaive} {
		tr, err := ftfft.New(n, ftfft.WithRanks(p), ftfft.WithProtection(prot))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n || tr.Ranks() != p {
			t.Fatalf("accessors: Len=%d Ranks=%d", tr.Len(), tr.Ranks())
		}
		dst := make([]complex128, n)
		rep, err := tr.Forward(bg, dst, append([]complex128(nil), x...))
		if err != nil {
			t.Fatalf("%v: %v (%+v)", prot, err, rep)
		}
		if d := maxAbsDiff(dst, want); d > 1e-8*float64(n)*(1+maxAbs(want)) {
			t.Errorf("%v: diff %g", prot, d)
		}
	}
	if _, err := ftfft.New(100, ftfft.WithRanks(3)); err == nil {
		t.Fatal("bad geometry accepted")
	}
	if _, err := ftfft.New(n, ftfft.WithRanks(p), ftfft.WithProtection(ftfft.OfflineABFT)); err == nil {
		t.Fatal("offline protection has no parallel formulation; New must reject it")
	}
}

func TestParallelFaultRecoveryPublicAPI(t *testing.T) {
	n, p := 4096, 8
	x := workload.Uniform(7, n)
	want := dft.Transform(x)
	sched := ftfft.NewFaultSchedule(2,
		ftfft.Fault{Site: ftfft.SiteMessage, Rank: 3, Occurrence: 2, Index: -1, Mode: ftfft.AddConstant, Value: 4},
	)
	dst, rep, err := transformOnce(t, x, false, ftfft.WithRanks(p), ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithInjector(sched))
	if err != nil {
		t.Fatalf("%v (%+v)", err, rep)
	}
	if !sched.AllFired() || rep.MemCorrections == 0 {
		t.Fatalf("fired=%v rep=%+v", sched.AllFired(), rep)
	}
	if d := maxAbsDiff(dst, want); d > 1e-7*float64(n)*(1+maxAbs(want)) {
		t.Fatalf("diff %g", d)
	}
}

func TestUncorrectableSurfacesAsError(t *testing.T) {
	n := 256
	// A fault that re-fires on every visit defeats the retry budget.
	sched := ftfft.NewFaultSchedule(3,
		ftfft.Fault{Site: ftfft.SiteSubFFT1, Rank: ftfft.AnyRank, Occurrence: 1, Index: 0, Mode: ftfft.AddConstant, Value: 100},
		ftfft.Fault{Site: ftfft.SiteSubFFT1, Rank: ftfft.AnyRank, Occurrence: 2, Index: 0, Mode: ftfft.AddConstant, Value: 100},
		ftfft.Fault{Site: ftfft.SiteSubFFT1, Rank: ftfft.AnyRank, Occurrence: 3, Index: 0, Mode: ftfft.AddConstant, Value: 100},
		ftfft.Fault{Site: ftfft.SiteSubFFT1, Rank: ftfft.AnyRank, Occurrence: 4, Index: 0, Mode: ftfft.AddConstant, Value: 100},
	)
	_, rep, err := transformOnce(t, workload.Uniform(8, n), false,
		ftfft.WithProtection(ftfft.OnlineABFT), ftfft.WithInjector(sched), ftfft.WithMaxRetries(3))
	if !errors.Is(err, ftfft.ErrUncorrectable) {
		t.Fatalf("want ErrUncorrectable, got %v", err)
	}
	if !rep.Uncorrectable {
		t.Fatalf("report not marked: %+v", rep)
	}
}

func TestProtectionStringer(t *testing.T) {
	for _, p := range allProtections {
		if p.String() == "" {
			t.Fatalf("empty name for %d", int(p))
		}
	}
	if ftfft.Protection(99).String() == "" {
		t.Fatal("unknown protection must stringify")
	}
}

func TestOnlineRejectsPrimeSizes(t *testing.T) {
	// n = 1 has no two-layer decomposition either, although the transform
	// is the identity.
	for _, n := range []int{101, 1} {
		if _, err := ftfft.New(n, ftfft.WithProtection(ftfft.OnlineABFT)); err == nil {
			t.Fatalf("online plan on size %d must fail", n)
		}
		if _, err := ftfft.New(n, ftfft.WithProtection(ftfft.OfflineABFT)); err != nil {
			t.Fatalf("offline plan on size %d should work: %v", n, err)
		}
	}
}

// TestInfiniteSubFFTOutputRepaired: a sub-FFT output overwritten with +Inf
// is detected and recomputed by every online level. An infinite checksum
// once verified against its own infinite round-off floor, so a SubFFT2 hit
// returned an infinite bin with a clean Report and no error.
func TestInfiniteSubFFTOutputRepaired(t *testing.T) {
	x := workload.Uniform(41, 4096)
	for _, prot := range []ftfft.Protection{ftfft.OnlineABFT, ftfft.OnlineABFTNaive, ftfft.OnlineABFTMemory, ftfft.OnlineABFTMemoryNaive} {
		want, _, err := transformOnce(t, x, false, ftfft.WithProtection(prot))
		if err != nil {
			t.Fatal(err)
		}
		for _, site := range []ftfft.Site{ftfft.SiteSubFFT1, ftfft.SiteSubFFT2} {
			sched := ftfft.NewFaultSchedule(1, ftfft.Fault{Site: site, Occurrence: 3, Rank: ftfft.AnyRank, Index: 2, Mode: ftfft.SetConstant, Value: math.Inf(1)})
			got, rep, err := transformOnce(t, x, false, ftfft.WithProtection(prot), ftfft.WithInjector(sched))
			if err != nil || !sched.AllFired() || rep.Detections != 1 || rep.CompRecomputations != 1 {
				t.Errorf("%v %v: err %v, fired %v, report %+v; want one detection and one recomputation", prot, site, err, sched.AllFired(), rep)
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%v %v: bin %d = %v, clean run gives %v", prot, site, i, got[i], want[i])
					break
				}
			}
		}
	}
}
