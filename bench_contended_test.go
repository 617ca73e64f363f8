// The BenchmarkContended* family measures throughput under heavy caller
// concurrency — the ROADMAP's serving scenario, where M simultaneous callers
// share one plan and the dispatch layer (not the arithmetic) decides whether
// the process degrades gracefully or thunders.
//
// Every benchmark drives contendedCallers concurrent goroutines through one
// shared plan via b.RunParallel, so ns/op is the per-transform latency the
// fleet observes at saturation. CI's contended bench smoke uploads one pass
// of the family; BENCH_PR3.json holds the before/after history of the
// executor refactor.
package ftfft_test

import (
	"context"
	"runtime"
	"testing"

	"ftfft"
	"ftfft/internal/workload"
)

// contendedCallers is the fleet size: 64 concurrent callers per benchmark.
const contendedCallers = 64

// benchContendedForward hammers tr.Forward from contendedCallers goroutines.
func benchContendedForward(b *testing.B, tr ftfft.Transform) {
	b.Helper()
	n := tr.Len()
	ctx := context.Background()
	b.SetBytes(int64(16 * n))
	b.SetParallelism((contendedCallers + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		src := workload.Uniform(int64(n), n)
		dst := make([]complex128, n)
		for pb.Next() {
			if _, err := tr.Forward(ctx, dst, src); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchContendedBatch hammers tr.ForwardBatch (items per call) from
// contendedCallers goroutines.
func benchContendedBatch(b *testing.B, tr ftfft.Transform, items int) {
	b.Helper()
	n := tr.Len()
	ctx := context.Background()
	b.SetBytes(int64(16 * n * items))
	b.SetParallelism((contendedCallers + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		src := make([][]complex128, items)
		dst := make([][]complex128, items)
		for i := range src {
			src[i] = workload.Uniform(int64(n+i), n)
			dst[i] = make([]complex128, n)
		}
		for pb.Next() {
			if _, err := tr.ForwardBatch(ctx, dst, src); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkContendedSeq_OnlineMemory(b *testing.B) {
	tr, err := ftfft.New(1<<12, ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		b.Fatal(err)
	}
	benchContendedForward(b, tr)
}

func BenchmarkContendedParallel4_OnlineMemory(b *testing.B) {
	tr, err := ftfft.New(1<<12, ftfft.WithRanks(4), ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		b.Fatal(err)
	}
	benchContendedForward(b, tr)
}

func BenchmarkContendedParallel4_FFTW(b *testing.B) {
	tr, err := ftfft.New(1<<12, ftfft.WithRanks(4))
	if err != nil {
		b.Fatal(err)
	}
	benchContendedForward(b, tr)
}

func BenchmarkContendedGrid2D_OnlineMemory(b *testing.B) {
	tr, err := ftfft.New(64*64, ftfft.WithDims(64, 64), ftfft.WithRanks(4),
		ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		b.Fatal(err)
	}
	benchContendedForward(b, tr)
}

func BenchmarkContendedBatch8_Seq_OnlineMemory(b *testing.B) {
	tr, err := ftfft.New(1<<12, ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		b.Fatal(err)
	}
	benchContendedBatch(b, tr, 8)
}

func BenchmarkContendedBatch8_Parallel4(b *testing.B) {
	tr, err := ftfft.New(1<<12, ftfft.WithRanks(4), ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		b.Fatal(err)
	}
	benchContendedBatch(b, tr, 8)
}
