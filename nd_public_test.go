package ftfft_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"ftfft"
	"ftfft/internal/dft"
	"ftfft/internal/workload"
)

// ndShapes covers ranks k ∈ {1, 2, 3, 4}, including degenerate size-1 axes.
var ndShapes = [][]int{
	{64},
	{8, 16},
	{32, 8},
	{4, 8, 8},
	{8, 8, 8},
	{1, 32},
	{32, 1},
	{8, 1, 8},
	{2, 4, 4, 4},
	{4, 4, 2, 4},
}

// ndProtOK reports whether every non-degenerate axis of dims is plannable
// as a protected 1-D transform under prot (the online scheme needs
// composite axis lengths ≥ 4; size-1 axes are identity passes).
func ndProtOK(dims []int, prot ftfft.Protection) bool {
	for _, d := range dims {
		if d == 1 {
			continue
		}
		if _, err := ftfft.New(d, ftfft.WithProtection(prot)); err != nil {
			return false
		}
	}
	return true
}

// axiswiseReference is the nested axis-wise reference: a protected 1-D
// transform per axis length, applied line by line with explicit
// gather/scatter in the engine's pass order (innermost axis first). The
// N-D engine's strided tiled passes must be bit-identical to it.
func axiswiseReference(t *testing.T, x []complex128, dims []int, prot ftfft.Protection, inverse bool) []complex128 {
	t.Helper()
	ctx := context.Background()
	out := append([]complex128(nil), x...)
	inner := 1
	for a := len(dims) - 1; a >= 0; a-- {
		length := dims[a]
		if length == 1 {
			continue
		}
		tr, err := ftfft.New(length, ftfft.WithProtection(prot))
		if err != nil {
			t.Fatalf("axis %d (len %d): %v", a, length, err)
		}
		line := make([]complex128, length)
		res := make([]complex128, length)
		outer := len(x) / (length * inner)
		for o := 0; o < outer; o++ {
			for s := 0; s < inner; s++ {
				base := o*length*inner + s
				for r := 0; r < length; r++ {
					line[r] = out[base+r*inner]
				}
				var err error
				if inverse {
					_, err = tr.Inverse(ctx, res, line)
				} else {
					_, err = tr.Forward(ctx, res, line)
				}
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < length; r++ {
					out[base+r*inner] = res[r]
				}
			}
		}
		inner *= length
	}
	return out
}

// ndReferenceDFT applies the O(len²) reference DFT axis by axis — the
// ground truth the engine is cross-checked against within round-off.
func ndReferenceDFT(x []complex128, dims []int) []complex128 {
	out := append([]complex128(nil), x...)
	inner := 1
	for a := len(dims) - 1; a >= 0; a-- {
		length := dims[a]
		if length == 1 {
			continue
		}
		line := make([]complex128, length)
		outer := len(x) / (length * inner)
		for o := 0; o < outer; o++ {
			for s := 0; s < inner; s++ {
				base := o*length*inner + s
				for r := 0; r < length; r++ {
					line[r] = out[base+r*inner]
				}
				X := dft.Transform(line)
				for r := 0; r < length; r++ {
					out[base+r*inner] = X[r]
				}
			}
		}
		inner *= length
	}
	return out
}

// TestNDMatchesAxiswiseReference is the acceptance gate for the N-D
// engine: for every tested shape and protection, WithDims outputs are
// bit-identical to the nested axis-wise reference (gather → protected 1-D
// transform → scatter per line) and within round-off of the axis-wise
// reference DFT.
func TestNDMatchesAxiswiseReference(t *testing.T) {
	ctx := context.Background()
	for _, dims := range ndShapes {
		n := 1
		for _, d := range dims {
			n *= d
		}
		x := workload.Uniform(int64(17+n), n)
		dftWant := ndReferenceDFT(x, dims)
		for _, prot := range []ftfft.Protection{ftfft.None, ftfft.OfflineABFT, ftfft.OnlineABFTMemory} {
			if !ndProtOK(dims, prot) {
				continue
			}
			want := axiswiseReference(t, x, dims, prot, false)
			tr, err := ftfft.New(n, ftfft.WithDims(dims...), ftfft.WithProtection(prot))
			if err != nil {
				t.Fatalf("%v %v: %v", dims, prot, err)
			}
			if got := tr.Dims(); !slices.Equal(got, dims) {
				t.Fatalf("Dims() = %v, want %v", got, dims)
			}
			got := make([]complex128, n)
			rep, err := tr.Forward(ctx, got, append([]complex128(nil), x...))
			if err != nil || !rep.Clean() {
				t.Fatalf("%v %v: err=%v rep=%+v", dims, prot, err, rep)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%v %v: element %d differs from the axis-wise reference: %v vs %v",
						dims, prot, j, got[j], want[j])
				}
			}
			tol := 1e-9 * float64(n) * (1 + maxAbs(dftWant))
			if d := maxAbsDiff(got, dftWant); d > tol {
				t.Fatalf("%v %v: diverged from reference DFT by %g (tol %g)", dims, prot, d, tol)
			}

			// Inverse: same contract.
			wantInv := axiswiseReference(t, x, dims, prot, true)
			gotInv := make([]complex128, n)
			if _, err := tr.Inverse(ctx, gotInv, append([]complex128(nil), x...)); err != nil {
				t.Fatalf("%v %v: inverse: %v", dims, prot, err)
			}
			for j := range gotInv {
				if gotInv[j] != wantInv[j] {
					t.Fatalf("%v %v: inverse element %d differs from the axis-wise reference",
						dims, prot, j)
				}
			}
		}
	}
}

// TestND3DFaultRecoveryRoundTrip drives scheduled computational and memory
// faults through a 3-D forward and inverse under online protection: every
// fault must fire, be detected, and the repaired round trip must match the
// clean run within round-off.
func TestND3DFaultRecoveryRoundTrip(t *testing.T) {
	ctx := context.Background()
	dims := []int{8, 16, 8}
	n := dims[0] * dims[1] * dims[2]
	x := workload.Uniform(23, n)

	clean, err := ftfft.New(n, ftfft.WithDims(dims...), ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		t.Fatal(err)
	}
	X := make([]complex128, n)
	back := make([]complex128, n)
	if _, err := clean.Forward(ctx, X, append([]complex128(nil), x...)); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Inverse(ctx, back, X); err != nil {
		t.Fatal(err)
	}

	sched := ftfft.NewFaultSchedule(31,
		ftfft.Fault{Site: ftfft.SiteSubFFT1, Rank: ftfft.AnyRank, Occurrence: 9, Index: -1, Mode: ftfft.AddConstant, Value: 7},
		ftfft.Fault{Site: ftfft.SiteInputMemory, Rank: ftfft.AnyRank, Occurrence: 4, Index: -1, Mode: ftfft.SetConstant, Value: 13},
		ftfft.Fault{Site: ftfft.SiteSubFFT2, Rank: ftfft.AnyRank, Occurrence: 40, Index: -1, Mode: ftfft.AddConstant, Value: 3},
	)
	faulty, err := ftfft.New(n, ftfft.WithDims(dims...),
		ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithInjector(sched))
	if err != nil {
		t.Fatal(err)
	}
	gotX := make([]complex128, n)
	rep, err := faulty.Forward(ctx, gotX, append([]complex128(nil), x...))
	if err != nil {
		t.Fatalf("forward: %v (%+v)", err, rep)
	}
	gotBack := make([]complex128, n)
	rep2, err := faulty.Inverse(ctx, gotBack, gotX)
	if err != nil {
		t.Fatalf("inverse: %v (%+v)", err, rep2)
	}
	if !sched.AllFired() {
		t.Fatalf("not all scheduled faults fired: %+v", sched.Records())
	}
	rep.Add(rep2)
	if rep.Clean() {
		t.Fatalf("faults fired but the report is clean: %+v", rep)
	}
	nf := float64(n)
	if d := maxAbsDiff(gotX, X); d > 1e-7*nf*(1+maxAbs(X)) {
		t.Fatalf("3-D forward recovery diff %g (%+v)", d, rep)
	}
	if d := maxAbsDiff(gotBack, back); d > 1e-7*nf*(1+maxAbs(back)) {
		t.Fatalf("3-D inverse recovery diff %g (%+v)", d, rep)
	}
}

// TestNDShapeCompat pins the Dims()/Ranks() accessor contract across
// geometries.
func TestNDShapeCompat(t *testing.T) {
	tr, err := ftfft.New(512, ftfft.WithDims(8, 8, 8), ftfft.WithRanks(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Dims(); !slices.Equal(got, []int{8, 8, 8}) {
		t.Errorf("3-D Dims() = %v, want [8 8 8]", got)
	}
	if tr.Ranks() != 3 {
		t.Errorf("Ranks() = %d, want 3", tr.Ranks())
	}
	seq, err := ftfft.New(512)
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.Dims(); !slices.Equal(got, []int{512}) {
		t.Errorf("1-D Dims() = %v, want [512]", got)
	}
	par, err := ftfft.New(1024, ftfft.WithRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := par.Dims(); !slices.Equal(got, []int{1024}) {
		t.Errorf("parallel Dims() = %v, want [1024]", got)
	}
}

// TestNDBatchBitIdentical: ForwardBatch over N-D items must match the
// unbatched sequence bit for bit, serial and dispatched.
func TestNDBatchBitIdentical(t *testing.T) {
	ctx := context.Background()
	const items = 4
	dims := []int{8, 4, 8}
	n := 8 * 4 * 8
	for _, ranks := range []int{1, 4} {
		tr, err := ftfft.New(n, ftfft.WithDims(dims...), ftfft.WithRanks(ranks),
			ftfft.WithProtection(ftfft.OnlineABFT))
		if err != nil {
			t.Fatal(err)
		}
		src := make([][]complex128, items)
		want := make([][]complex128, items)
		dst := make([][]complex128, items)
		for i := range src {
			src[i] = workload.Uniform(int64(90+i), n)
			want[i] = make([]complex128, n)
			dst[i] = make([]complex128, n)
			if _, err := tr.Forward(ctx, want[i], src[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.ForwardBatch(ctx, dst, src); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			for j := range dst[i] {
				if dst[i][j] != want[i][j] {
					t.Fatalf("ranks=%d: batch item %d differs at %d", ranks, i, j)
				}
			}
		}
	}
}

// TestContextPoolBounded is the workspace-retention regression test: a
// burst of M concurrent calls on one plan must not pin M workspaces — once
// the burst drains, each executor's freelist holds at most its cap, and
// the cap is strictly smaller than the burst.
func TestContextPoolBounded(t *testing.T) {
	ctx := context.Background()
	const burst = 24
	complexPlan := func(n int, opts ...ftfft.Option) func() (any, func(seed int64) func() error, error) {
		return func() (any, func(seed int64) func() error, error) {
			tr, err := ftfft.New(n, opts...)
			call := func(seed int64) func() error {
				src := workload.Uniform(seed, n)
				dst := make([]complex128, n)
				return func() error { _, err := tr.Forward(ctx, dst, src); return err }
			}
			return tr, call, err
		}
	}
	for _, tc := range []struct {
		name  string
		build func() (any, func(seed int64) func() error, error)
	}{
		{"seq", complexPlan(1024, ftfft.WithProtection(ftfft.OnlineABFTMemory))},
		{"nd", complexPlan(32*32, ftfft.WithDims(32, 32), ftfft.WithProtection(ftfft.OnlineABFT))},
		{"parallel", complexPlan(1024, ftfft.WithRanks(2), ftfft.WithProtection(ftfft.OnlineABFTMemory))},
		{"real", func() (any, func(seed int64) func() error, error) {
			tr, err := ftfft.NewReal(1024, ftfft.WithProtection(ftfft.OnlineABFTMemory))
			call := func(seed int64) func() error {
				src := realInput(seed, 1024)
				dst := make([]complex128, 1024/2+1)
				return func() error { _, err := tr.Forward(ctx, dst, src); return err }
			}
			return tr, call, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, call, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			_, capacity := ftfft.PooledContexts(tr)
			if capacity < 1 || capacity >= burst {
				t.Fatalf("freelist cap %d not in [1, %d): the burst cannot observe it", capacity, burst)
			}
			gate := make(chan struct{})
			var wg sync.WaitGroup
			errs := make([]error, burst)
			for i := 0; i < burst; i++ {
				wg.Add(1)
				forward := call(int64(i))
				go func(i int) {
					defer wg.Done()
					<-gate
					for it := 0; it < 3; it++ {
						if err := forward(); err != nil {
							errs[i] = err
							return
						}
					}
				}(i)
			}
			close(gate)
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			free, capacity := ftfft.PooledContexts(tr)
			if free > capacity {
				t.Fatalf("freelist retains %d contexts after the burst, cap is %d", free, capacity)
			}
		})
	}
}

// TestNDSerialAllocs: the serial N-D steady state, 1-D plans included,
// must allocate nothing — strided passes neither gather, scatter, nor
// construct per call.
func TestNDSerialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opts []ftfft.Option
	}{
		{"2-D", []ftfft.Option{ftfft.WithDims(64, 64)}},
		{"1-D", nil}, // the one-axis shape [n]
	} {
		tr, err := ftfft.New(64*64, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		src := workload.Uniform(3, 64*64)
		dst := make([]complex128, 64*64)
		if _, err := tr.Forward(ctx, dst, src); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tr.Forward(ctx, dst, src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("serial %s Forward: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}
