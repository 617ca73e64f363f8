package ftfft_test

// bench_tune_test.go is the autotuner's A-B trajectory: BenchmarkTuned*
// runs the same transform under the estimate heuristics and under a freshly
// measured wisdom table, one sub-benchmark per mode, so one run
// (go test -bench Tuned) prices the measured-vs-estimate delta of the
// Bluestein convolution knob without hand-built comparisons.
// BenchmarkTunedPlanBuild prices plan build: a wisdom hit must build within
// noise of the estimate path (the measurement sweep runs only on a table
// miss).

import (
	"context"
	"testing"

	"ftfft"
	"ftfft/internal/workload"
)

// benchTunedForward benches steady-state Forward throughput for one tuning
// mode. Measured mode pays its sweeps at plan build, outside the timer; the
// wisdom table is reset first so each run measures from scratch rather than
// inheriting an earlier sub-benchmark's winners.
func benchTunedForward(b *testing.B, n int, mode ftfft.TuningMode) {
	b.Helper()
	ftfft.ForgetWisdom()
	tr, err := ftfft.New(n, ftfft.WithTuning(mode))
	if err != nil {
		b.Fatal(err)
	}
	src := workload.Uniform(int64(n), n)
	dst := make([]complex128, n)
	ctx := context.Background()
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Forward(ctx, dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTunedBluestein4099 is the conv-length knob A-B on the recorded
// +11% heuristic miss: n = 4099 is prime, so the whole transform is one
// Bluestein leaf and the convolution length dominates.
func BenchmarkTunedBluestein4099(b *testing.B) {
	b.Run("estimate", func(b *testing.B) { benchTunedForward(b, 4099, ftfft.TuneEstimate) })
	b.Run("measured", func(b *testing.B) { benchTunedForward(b, 4099, ftfft.TuneMeasured) })
}

// BenchmarkTunedPlanBuild pins that a wisdom hit costs plan-build time
// within noise of the estimate path: after one measured build populates the
// table, every further measured build is lookups plus the same construction
// work — the sweeps never re-run on a hit.
func BenchmarkTunedPlanBuild(b *testing.B) {
	const n = 4099
	b.Run("estimate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ftfft.New(n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wisdom-hit", func(b *testing.B) {
		ftfft.ForgetWisdom()
		if _, err := ftfft.New(n, ftfft.WithTuning(ftfft.TuneMeasured)); err != nil {
			b.Fatal(err) // first build measures and records
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ftfft.New(n, ftfft.WithTuning(ftfft.TuneMeasured)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
