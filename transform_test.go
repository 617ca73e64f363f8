package ftfft_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ftfft"
	"ftfft/internal/dft"
	"ftfft/internal/workload"
)

var bg = context.Background()

// TestParallel2DInverseRoundTrip exercises the rank-pool 2-D path through
// Inverse (including under protection with injected faults elsewhere absent).
func TestParallel2DInverseRoundTrip(t *testing.T) {
	rows, cols := 64, 32
	n := rows * cols
	x := workload.Normal(24, n)
	tr, err := ftfft.New(n, ftfft.WithDims(rows, cols), ftfft.WithRanks(4),
		ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		t.Fatal(err)
	}
	X := make([]complex128, n)
	y := make([]complex128, n)
	if _, err := tr.Forward(bg, X, append([]complex128(nil), x...)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Inverse(bg, y, X); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(y, x); d > 1e-9*float64(n)*(1+maxAbs(x)) {
		t.Fatalf("round trip diff %g", d)
	}
}

// TestParallelInverse: the parallel inverse (conjugation identity over the
// six-step pipeline) must match the direct IDFT and round-trip with the
// parallel forward.
func TestParallelInverse(t *testing.T) {
	n, p := 4096, 8
	x := workload.Uniform(25, n)
	for _, prot := range []ftfft.Protection{ftfft.None, ftfft.OnlineABFTMemory} {
		tr, err := ftfft.New(n, ftfft.WithRanks(p), ftfft.WithProtection(prot))
		if err != nil {
			t.Fatal(err)
		}
		want := dft.Inverse(x)
		got := make([]complex128, n)
		if _, err := tr.Inverse(bg, got, append([]complex128(nil), x...)); err != nil {
			t.Fatalf("%v: %v", prot, err)
		}
		if d := maxAbsDiff(got, want); d > 1e-9*float64(n)*(1+maxAbs(want)) {
			t.Fatalf("%v: inverse diff %g", prot, d)
		}
		X := make([]complex128, n)
		y := make([]complex128, n)
		if _, err := tr.Forward(bg, X, append([]complex128(nil), x...)); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Inverse(bg, y, X); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(y, x); d > 1e-9*float64(n)*(1+maxAbs(x)) {
			t.Fatalf("%v: round trip diff %g", prot, d)
		}
	}
}

// TestParallelInverseFaultRecovery pushes injected faults through the
// parallel inverse path: detection must be reported and the output must
// still match the clean reference.
func TestParallelInverseFaultRecovery(t *testing.T) {
	n, p := 4096, 8
	x := workload.Uniform(26, n)
	clean, err := ftfft.New(n, ftfft.WithRanks(p), ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	if _, err := clean.Inverse(bg, want, append([]complex128(nil), x...)); err != nil {
		t.Fatal(err)
	}
	sched := ftfft.NewFaultSchedule(27,
		ftfft.Fault{Site: ftfft.SiteMessage, Rank: 2, Occurrence: 3, Index: -1, Mode: ftfft.AddConstant, Value: 6},
		ftfft.Fault{Site: ftfft.SiteParallelFFT1, Rank: 5, Occurrence: 2, Index: -1, Mode: ftfft.AddConstant, Value: 3},
	)
	tr, err := ftfft.New(n, ftfft.WithRanks(p), ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithInjector(sched))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, n)
	rep, err := tr.Inverse(bg, got, append([]complex128(nil), x...))
	if err != nil {
		t.Fatalf("%v (%+v)", err, rep)
	}
	if !sched.AllFired() || rep.Clean() {
		t.Fatalf("fired=%v rep=%+v", sched.AllFired(), rep)
	}
	if d := maxAbsDiff(got, want); d > 1e-9*float64(n)*(1+maxAbs(want)) {
		t.Fatalf("inverse recovery diff %g (%+v)", d, rep)
	}
}

// TestForwardBatchBitIdentical: batched outputs must equal the unbatched
// ones bit-for-bit, for every executor kind.
func TestForwardBatchBitIdentical(t *testing.T) {
	const items = 6
	for _, tc := range []struct {
		name string
		opts []ftfft.Option
		n    int
	}{
		{"sequential", []ftfft.Option{ftfft.WithProtection(ftfft.OnlineABFTMemory)}, 512},
		{"parallel", []ftfft.Option{ftfft.WithRanks(4), ftfft.WithProtection(ftfft.OnlineABFTMemory)}, 1024},
		{"grid", []ftfft.Option{ftfft.WithDims(16, 32), ftfft.WithRanks(2), ftfft.WithProtection(ftfft.OnlineABFT)}, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ftfft.New(tc.n, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			src := make([][]complex128, items)
			dstBatch := make([][]complex128, items)
			dstSingle := make([][]complex128, items)
			for i := range src {
				src[i] = workload.Uniform(int64(30+i), tc.n)
				dstBatch[i] = make([]complex128, tc.n)
				dstSingle[i] = make([]complex128, tc.n)
			}
			if _, err := tr.ForwardBatch(bg, dstBatch, src); err != nil {
				t.Fatal(err)
			}
			for i := range src {
				if _, err := tr.Forward(bg, dstSingle[i], src[i]); err != nil {
					t.Fatal(err)
				}
				for j := range dstSingle[i] {
					if dstBatch[i][j] != dstSingle[i][j] {
						t.Fatalf("item %d differs at %d", i, j)
					}
				}
			}
		})
	}
}

// TestUniformValidation: every executor must reject short buffers, aliased
// buffers, and mismatched batches at the API boundary.
func TestUniformValidation(t *testing.T) {
	seqT, err := ftfft.New(256)
	if err != nil {
		t.Fatal(err)
	}
	parT, err := ftfft.New(1024, ftfft.WithRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	gridT, err := ftfft.New(256, ftfft.WithDims(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   ftfft.Transform
	}{
		{"seq", seqT}, {"parallel", parT}, {"grid", gridT},
	} {
		n := tc.tr.Len()
		buf := make([]complex128, n)
		short := make([]complex128, n-1)
		if _, err := tc.tr.Forward(bg, short, buf); err == nil {
			t.Errorf("%s: Forward accepted short dst", tc.name)
		}
		if _, err := tc.tr.Inverse(bg, buf, short); err == nil {
			t.Errorf("%s: Inverse accepted short src", tc.name)
		}
		if _, err := tc.tr.Forward(bg, buf, buf); err == nil ||
			!strings.Contains(err.Error(), "alias") {
			t.Errorf("%s: Forward accepted aliased buffers (err=%v)", tc.name, err)
		}
		if _, err := tc.tr.Inverse(bg, buf, buf); err == nil {
			t.Errorf("%s: Inverse accepted aliased buffers", tc.name)
		}
		if _, err := tc.tr.ForwardBatch(bg, [][]complex128{buf}, nil); err == nil {
			t.Errorf("%s: batch size mismatch accepted", tc.name)
		}
		if _, err := tc.tr.ForwardBatch(bg, [][]complex128{buf}, [][]complex128{buf}); err == nil {
			t.Errorf("%s: aliased batch item accepted", tc.name)
		}
	}
}

// TestCancellation: an already-canceled context must fail fast on every
// executor, and a mid-batch cancel must stop the batch.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	for _, opts := range [][]ftfft.Option{
		{ftfft.WithProtection(ftfft.OnlineABFTMemory)},
		{ftfft.WithRanks(4)},
		{ftfft.WithDims(16, 16)},
	} {
		n := 256
		tr, err := ftfft.New(n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]complex128, n)
		src := workload.Uniform(40, n)
		if _, err := tr.Forward(ctx, dst, src); !errors.Is(err, context.Canceled) {
			t.Errorf("%T: want context.Canceled, got %v", tr, err)
		}
		if _, err := tr.Inverse(ctx, dst, src); !errors.Is(err, context.Canceled) {
			t.Errorf("%T inverse: want context.Canceled, got %v", tr, err)
		}
	}
}

// persistentFault corrupts every visit to one site on one rank — the fault
// model that defeats any retry budget and, before the poison-pill abort,
// deadlocked the peers of the failing rank (the ROADMAP's known hang).
type persistentFault struct {
	site ftfft.Site
	rank int
}

func (f *persistentFault) Visit(site ftfft.Site, rank int, data []complex128, n, stride int) bool {
	if site != f.site || rank != f.rank || n == 0 {
		return false
	}
	data[0] += 1e6
	return true
}

// TestParallelRankAbortReturnsWithinDeadline is the acceptance test for the
// ROADMAP open item: a parallel transform whose injector exhausts MaxRetries
// on one rank must return ErrUncorrectable promptly instead of deadlocking
// the other ranks in Recv.
func TestParallelRankAbortReturnsWithinDeadline(t *testing.T) {
	n, p := 4096, 8
	tr, err := ftfft.New(n, ftfft.WithRanks(p),
		ftfft.WithProtection(ftfft.OnlineABFTMemory),
		ftfft.WithInjector(&persistentFault{site: ftfft.SiteParallelFFT1, rank: 3}),
		ftfft.WithMaxRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	src := workload.Uniform(41, n)
	dst := make([]complex128, n)
	done := make(chan error, 1)
	go func() {
		_, err := tr.Forward(bg, dst, src)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ftfft.ErrUncorrectable) {
			t.Fatalf("want ErrUncorrectable, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("parallel transform deadlocked after rank abort")
	}
}

// TestParallelContextCancelUnblocksRecv: cancelling the context must unwind
// ranks parked in a transpose receive. A fault that stalls one rank forever
// cannot exist without an injector loop, so instead cancel concurrently with
// a normal run and only require that the call returns promptly.
func TestParallelContextCancelUnblocksRecv(t *testing.T) {
	n, p := 16384, 4
	tr, err := ftfft.New(n, ftfft.WithRanks(p), ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		t.Fatal(err)
	}
	src := workload.Uniform(42, n)
	dst := make([]complex128, n)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := tr.Forward(ctx, dst, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// A deadline that expires mid-flight must surface DeadlineExceeded (or
	// complete cleanly if the transform won the race).
	ctx2, cancel2 := context.WithTimeout(bg, time.Microsecond)
	defer cancel2()
	if _, err := tr.Forward(ctx2, dst, src); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want nil or DeadlineExceeded, got %v", err)
	}
	// The plan must remain usable after cancellations.
	if _, err := tr.Forward(bg, dst, src); err != nil {
		t.Fatalf("plan poisoned by cancellation: %v", err)
	}
}

// TestInverseFaultRecovery drives scheduled faults through the sequential
// Inverse path (satellite: injection coverage for Inverse).
func TestInverseFaultRecovery(t *testing.T) {
	n := 1024
	x := workload.Uniform(43, n)
	want := dft.Inverse(x)
	sched := ftfft.NewFaultSchedule(44,
		ftfft.Fault{Site: ftfft.SiteSubFFT1, Rank: ftfft.AnyRank, Occurrence: 2, Index: -1, Mode: ftfft.AddConstant, Value: 9},
		ftfft.Fault{Site: ftfft.SiteInputMemory, Rank: ftfft.AnyRank, Index: 77, Mode: ftfft.SetConstant, Value: -3},
	)
	tr, err := ftfft.New(n, ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithInjector(sched))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, n)
	rep, err := tr.Inverse(bg, got, append([]complex128(nil), x...))
	if err != nil {
		t.Fatalf("%v (%+v)", err, rep)
	}
	if !sched.AllFired() {
		t.Fatal("faults did not fire through the inverse path")
	}
	if rep.Clean() {
		t.Fatalf("expected recovery activity, got clean report")
	}
	if d := maxAbsDiff(got, want); d > 1e-7*float64(n)*(1+maxAbs(want)) {
		t.Fatalf("inverse output wrong after recovery: %g (%+v)", d, rep)
	}
}
