package ftfft_test

import (
	"slices"
	"testing"

	"ftfft"
	"ftfft/internal/dft"
	"ftfft/internal/workload"
)

// direct2D is the O((rc)²) reference 2-D DFT.
func direct2D(x []complex128, rows, cols int) []complex128 {
	// Rows first…
	tmp := make([]complex128, rows*cols)
	for r := 0; r < rows; r++ {
		copy(tmp[r*cols:], dft.Transform(x[r*cols:(r+1)*cols]))
	}
	// …then columns.
	out := make([]complex128, rows*cols)
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = tmp[r*cols+c]
		}
		X := dft.Transform(col)
		for r := 0; r < rows; r++ {
			out[r*cols+c] = X[r]
		}
	}
	return out
}

// Test2DForwardMatchesDirect checks 2-D plans against the direct DFT, and
// that dispatching the passes over a worker pool (WithRanks) changes no bit.
func Test2DForwardMatchesDirect(t *testing.T) {
	for _, shape := range []struct{ rows, cols int }{
		{16, 16}, {8, 32}, {64, 16},
	} {
		x := workload.Uniform(int64(shape.rows), shape.rows*shape.cols)
		want := direct2D(x, shape.rows, shape.cols)
		for _, prot := range []ftfft.Protection{ftfft.None, ftfft.OnlineABFTMemory} {
			opts := []ftfft.Option{ftfft.WithDims(shape.rows, shape.cols), ftfft.WithProtection(prot)}
			dst, rep, err := transformOnce(t, x, false, opts...)
			if err != nil || !rep.Clean() {
				t.Fatalf("%dx%d %v: err=%v rep=%+v", shape.rows, shape.cols, prot, err, rep)
			}
			n := float64(len(x))
			if d := maxAbsDiff(dst, want); d > 1e-8*n*(1+maxAbs(want)) {
				t.Errorf("%dx%d %v: diff %g", shape.rows, shape.cols, prot, d)
			}
			if par, _, err := transformOnce(t, x, false, append(opts, ftfft.WithRanks(4))...); err != nil || !slices.Equal(par, dst) {
				t.Errorf("%dx%d %v: WithRanks(4) changed the output (err=%v)", shape.rows, shape.cols, prot, err)
			}
		}
	}
}

func Test2DInverseRoundTrip(t *testing.T) {
	rows, cols := 32, 64
	x := workload.Normal(4, rows*cols)
	opts := []ftfft.Option{ftfft.WithDims(rows, cols), ftfft.WithProtection(ftfft.OnlineABFTMemory)}
	X, _, err := transformOnce(t, x, false, opts...)
	if err != nil {
		t.Fatal(err)
	}
	y, _, err := transformOnce(t, X, true, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(y, x); d > 1e-9*float64(rows*cols)*(1+maxAbs(x)) {
		t.Fatalf("2-D round trip diff %g", d)
	}
}

func Test2DFaultRecovery(t *testing.T) {
	rows, cols := 32, 32
	x := workload.Uniform(5, rows*cols)
	want := direct2D(x, rows, cols)
	sched := ftfft.NewFaultSchedule(6,
		ftfft.Fault{Site: ftfft.SiteSubFFT1, Rank: ftfft.AnyRank, Occurrence: 7, Index: -1, Mode: ftfft.AddConstant, Value: 5},
		ftfft.Fault{Site: ftfft.SiteInputMemory, Rank: ftfft.AnyRank, Occurrence: 3, Index: -1, Mode: ftfft.SetConstant, Value: 9},
	)
	dst, rep, err := transformOnce(t, x, false, ftfft.WithDims(rows, cols), ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithInjector(sched))
	if err != nil {
		t.Fatalf("%v (%+v)", err, rep)
	}
	if !sched.AllFired() || rep.Clean() {
		t.Fatalf("fired=%v rep=%+v", sched.AllFired(), rep)
	}
	n := float64(rows * cols)
	if d := maxAbsDiff(dst, want); d > 1e-7*n*(1+maxAbs(want)) {
		t.Fatalf("2-D recovery diff %g (%+v)", d, rep)
	}
}

// Test2DInverseFaultRecovery drives scheduled faults through the 2-D
// inverse path: detection must be reported and the repaired output must
// match a clean reference within round-off tolerance.
func Test2DInverseFaultRecovery(t *testing.T) {
	rows, cols := 32, 32
	x := workload.Uniform(9, rows*cols)
	want, _, err := transformOnce(t, x, true, ftfft.WithDims(rows, cols), ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		t.Fatal(err)
	}
	sched := ftfft.NewFaultSchedule(10,
		ftfft.Fault{Site: ftfft.SiteSubFFT1, Rank: ftfft.AnyRank, Occurrence: 5, Index: -1, Mode: ftfft.AddConstant, Value: 4},
		ftfft.Fault{Site: ftfft.SiteInputMemory, Rank: ftfft.AnyRank, Occurrence: 2, Index: -1, Mode: ftfft.SetConstant, Value: 11},
	)
	got, rep, err := transformOnce(t, x, true, ftfft.WithDims(rows, cols), ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithInjector(sched))
	if err != nil {
		t.Fatalf("%v (%+v)", err, rep)
	}
	if !sched.AllFired() || rep.Clean() {
		t.Fatalf("fired=%v rep=%+v", sched.AllFired(), rep)
	}
	n := float64(rows * cols)
	if d := maxAbsDiff(got, want); d > 1e-7*n*(1+maxAbs(want)) {
		t.Fatalf("2-D inverse recovery diff %g (%+v)", d, rep)
	}
}

func Test2DValidation(t *testing.T) {
	if _, err := ftfft.New(64, ftfft.WithDims(0, 8)); err == nil {
		t.Fatal("zero rows accepted")
	}
	tr, err := ftfft.New(64, ftfft.WithDims(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Dims(); !slices.Equal(got, []int{8, 8}) {
		t.Fatalf("Dims = %v", got)
	}
	if _, err := tr.Forward(bg, make([]complex128, 10), make([]complex128, 64)); err == nil {
		t.Fatal("short dst accepted")
	}
}
