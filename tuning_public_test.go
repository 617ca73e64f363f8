package ftfft_test

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"ftfft"
	"ftfft/internal/workload"
)

// forwardOnce builds a plan and runs one forward transform of src.
func forwardOnce(t *testing.T, n int, src []complex128, opts ...ftfft.Option) []complex128 {
	t.Helper()
	dst, _, err := transformOnce(t, src[:n], false, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestTuningEstimateBitIdentical pins the migration contract: the default
// TuneEstimate mode — spelled out or omitted — is the exact pre-tuning
// planner. No knob hooks may perturb the heuristics' choices.
func TestTuningEstimateBitIdentical(t *testing.T) {
	for _, n := range []int{256, 1024, 4099} {
		prot := ftfft.OnlineABFTMemory
		if n == 4099 {
			prot = ftfft.None // prime size: the online scheme needs a composite
		}
		src := workload.Uniform(int64(n), n)
		plain := forwardOnce(t, n, src, ftfft.WithProtection(prot))
		spelled := forwardOnce(t, n, src,
			ftfft.WithProtection(prot), ftfft.WithTuning(ftfft.TuneEstimate))
		for i := range plain {
			if plain[i] != spelled[i] {
				t.Fatalf("n=%d: explicit TuneEstimate diverged from default at bin %d", n, i)
			}
		}
	}
}

// TestTuningDeterminism is the tuner's honesty gate: two TuneMeasured
// builds under the same wisdom make the same choices and produce
// bit-identical spectra. Run A measures from an empty table and exports;
// run B imports that wisdom and must hit it everywhere (no re-measurement
// changes the outcome). The rows cover the Bluestein convolution knob —
// the one tuned choice — on a prime size that is a single leaf (n=4099)
// and on a protected two-layer plan whose sub-FFT carries one (n=4·1031).
func TestTuningDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs plan-build timing sweeps")
	}
	type geom struct {
		name string
		n    int
		opts []ftfft.Option
	}
	geoms := []geom{
		{"n4099-bluestein", 4099, []ftfft.Option{ftfft.WithProtection(ftfft.None)}},
		{"n4124-online-memory", 4 * 1031, []ftfft.Option{ftfft.WithProtection(ftfft.OnlineABFTMemory)}},
	}

	ftfft.ForgetWisdom()
	t.Cleanup(ftfft.ForgetWisdom)
	first := make(map[string][]complex128, len(geoms))
	for _, g := range geoms {
		src := workload.Uniform(int64(g.n), g.n)
		opts := append([]ftfft.Option{ftfft.WithTuning(ftfft.TuneMeasured)}, g.opts...)
		first[g.name] = forwardOnce(t, g.n, src, opts...)
	}
	wisdom := ftfft.ExportWisdom()
	if len(wisdom) == 0 {
		t.Fatal("measured runs recorded no wisdom")
	}

	ftfft.ForgetWisdom()
	if err := ftfft.ImportWisdom(wisdom); err != nil {
		t.Fatal(err)
	}
	for _, g := range geoms {
		src := workload.Uniform(int64(g.n), g.n)
		opts := append([]ftfft.Option{ftfft.WithTuning(ftfft.TuneMeasured)}, g.opts...)
		again := forwardOnce(t, g.n, src, opts...)
		for i := range again {
			if again[i] != first[g.name][i] {
				t.Fatalf("%s: wisdom-replayed build diverged at bin %d", g.name, i)
			}
		}
	}
	// Replaying from hits must not have re-measured new entries into the
	// table: the re-export is byte-identical to the imported blob.
	if !bytes.Equal(ftfft.ExportWisdom(), wisdom) {
		t.Fatal("wisdom-hit builds mutated the table (re-measured on a hit)")
	}
}

// TestTuningPow2RecordsNothing pins that TuneMeasured leaves plans without
// a Bluestein leaf alone: power-of-two complex, real, 2-D and parallel plans
// record no wisdom and compute bit for bit what TuneEstimate computes.
func TestTuningPow2RecordsNothing(t *testing.T) {
	const n = 1024
	ftfft.ForgetWisdom()
	t.Cleanup(ftfft.ForgetWisdom)
	empty := ftfft.ExportWisdom()
	mem := ftfft.WithProtection(ftfft.OnlineABFTMemory)
	measured := ftfft.WithTuning(ftfft.TuneMeasured)
	src := workload.Uniform(11, n)
	for _, g := range []struct {
		name string
		opts []ftfft.Option
	}{
		{"complex", []ftfft.Option{mem}},
		{"2-D", []ftfft.Option{mem, ftfft.WithDims(32, 32)}},
		{"ranks", []ftfft.Option{mem, ftfft.WithRanks(4)}},
	} {
		want := forwardOnce(t, n, src, g.opts...)
		if got := forwardOnce(t, n, src, append([]ftfft.Option{measured}, g.opts...)...); !slices.Equal(got, want) {
			t.Fatalf("%s: TuneMeasured diverged from TuneEstimate", g.name)
		}
	}
	rsrc := randomReal(11, n)
	realOnce := func(opts ...ftfft.Option) []complex128 {
		t.Helper()
		rt, err := ftfft.NewReal(n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]complex128, rt.SpectrumLen())
		if _, err := rt.Forward(context.Background(), dst, rsrc); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	if !slices.Equal(realOnce(mem, measured), realOnce(mem)) {
		t.Fatal("real: TuneMeasured diverged from TuneEstimate")
	}
	if !bytes.Equal(ftfft.ExportWisdom(), empty) {
		t.Fatal("power-of-two plans recorded wisdom")
	}
}

// TestTunedServeBitIdentical extends the serve acceptance gate to tuned
// plans: a server sharing the tuner's wisdom table must return bit-for-bit
// the spectrum a local TuneMeasured plan (hitting the same wisdom) computes.
// The server never measures — it applies the imported choices on each plan
// cache miss.
func TestTunedServeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs plan-build timing sweeps")
	}
	// 8198 = 2·4099: the online scheme's 4099-point sub-FFT is a Bluestein
	// leaf, so the plan carries a live convolution knob.
	const n = 2 * 4099
	ctx := context.Background()
	src := workload.Uniform(7, n)

	ftfft.ForgetWisdom()
	t.Cleanup(ftfft.ForgetWisdom)
	empty := ftfft.ExportWisdom()
	want := forwardOnce(t, n, src,
		ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithTuning(ftfft.TuneMeasured))
	wisdom := ftfft.ExportWisdom()
	if bytes.Equal(wisdom, empty) {
		t.Fatal("measured build recorded no wisdom")
	}
	ftfft.ForgetWisdom()
	if err := ftfft.ImportWisdom(wisdom); err != nil {
		t.Fatal(err)
	}

	_, network, addr := startServe(t, ftfft.ServerConfig{})
	c := dialServe(t, network, addr)
	got := make([]complex128, n)
	if _, err := c.Forward(ctx, got, src, ftfft.WithProtection(ftfft.OnlineABFTMemory)); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("served tuned spectrum diverged from local at bin %d: %v vs %v", i, got[i], want[i])
		}
	}

	// Clients cannot steer tuning remotely: the plan-side options are
	// rejected at the client boundary.
	if _, err := c.Forward(ctx, got, src, ftfft.WithTuning(ftfft.TuneMeasured)); err == nil {
		t.Fatal("client Forward accepted WithTuning")
	}
	if _, err := c.Forward(ctx, got, src, ftfft.WithBatchWindow(2)); err == nil {
		t.Fatal("client Forward accepted WithBatchWindow")
	}
}

// TestBatchWindowPinned pins the WithBatchWindow contract on a parallel
// plan: every legal window produces the same bits as the heuristic default,
// because the window only changes pipelining depth, never arithmetic.
func TestBatchWindowPinned(t *testing.T) {
	const n, ranks, items = 256, 4, 6
	ctx := context.Background()
	src := make([][]complex128, items)
	for i := range src {
		src[i] = workload.Uniform(int64(100+i), n)
	}
	batchOut := func(opts ...ftfft.Option) [][]complex128 {
		t.Helper()
		opts = append([]ftfft.Option{ftfft.WithRanks(ranks), ftfft.WithProtection(ftfft.OnlineABFTMemory)}, opts...)
		tr, err := ftfft.New(n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([][]complex128, items)
		for i := range dst {
			dst[i] = make([]complex128, n)
		}
		if _, err := tr.ForwardBatch(ctx, dst, src); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	want := batchOut()
	for _, w := range []int{1, 2, 4} {
		got := batchOut(ftfft.WithBatchWindow(w))
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("window %d: item %d bin %d diverged", w, i, j)
				}
			}
		}
	}

	// NewReal rejects the window with the other parallel-only options.
	if _, err := ftfft.NewReal(512, ftfft.WithBatchWindow(2)); err == nil {
		t.Fatal("NewReal accepted WithBatchWindow")
	}
}
