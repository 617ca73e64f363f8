// Benchmarks regenerating the paper's evaluation, one family per table or
// figure, plus micro-benchmarks of the substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The figure-level comparisons read off overheads as ratios between the
// benchmarks of one family, exactly as the figures compare bars.
package ftfft_test

import (
	"context"
	"fmt"
	"testing"

	"ftfft"
	"ftfft/internal/checksum"
	"ftfft/internal/core"
	"ftfft/internal/fault"
	"ftfft/internal/fft"
	"ftfft/internal/parallel"
	"ftfft/internal/workload"
)

const benchN = 1 << 16 // sequential benchmark size (paper: 2^25..2^28)

// ---------------------------------------------------------------- Fig 7(a)
// Fault-free overhead, computational FT: compare each scheme's ns/op with
// Fig7a_FFTW's.

func benchScheme(b *testing.B, n int, cfg core.Config) {
	b.Helper()
	src := workload.Uniform(int64(n), n)
	tr, err := core.New(n, cfg)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]complex128, n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Transform(dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7a_FFTW(b *testing.B) {
	benchScheme(b, benchN, core.Config{Scheme: core.Plain})
}
func BenchmarkFig7a_Offline(b *testing.B) {
	benchScheme(b, benchN, core.Config{Scheme: core.Offline, Variant: core.Naive})
}
func BenchmarkFig7a_OptOffline(b *testing.B) {
	benchScheme(b, benchN, core.Config{Scheme: core.Offline, Variant: core.Optimized})
}
func BenchmarkFig7a_CFTOOnline(b *testing.B) {
	benchScheme(b, benchN, core.Config{Scheme: core.Online, Variant: core.Naive})
}
func BenchmarkFig7a_OptOnline(b *testing.B) {
	benchScheme(b, benchN, core.Config{Scheme: core.Online, Variant: core.Optimized})
}

// ---------------------------------------------------------------- Fig 7(b)
// Fault-free overhead, computational + memory FT.

func BenchmarkFig7b_Offline(b *testing.B) {
	benchScheme(b, benchN, core.Config{Scheme: core.Offline, Variant: core.Naive, MemoryFT: true})
}
func BenchmarkFig7b_OptOffline(b *testing.B) {
	benchScheme(b, benchN, core.Config{Scheme: core.Offline, Variant: core.Optimized, MemoryFT: true})
}
func BenchmarkFig7b_Online(b *testing.B) {
	benchScheme(b, benchN, core.Config{Scheme: core.Online, Variant: core.Naive, MemoryFT: true})
}
func BenchmarkFig7b_OptOnline(b *testing.B) {
	benchScheme(b, benchN, core.Config{Scheme: core.Online, Variant: core.Optimized, MemoryFT: true})
}

// ----------------------------------------------------------------- Table 1
// Execution time with faults: the offline scheme pays a full restart per
// memory fault; the online scheme recovers in O(√N·log√N).

func benchSchemeWithFaults(b *testing.B, n int, cfg core.Config, faults func() []fault.Fault) {
	b.Helper()
	src := workload.Uniform(int64(n), n)
	dst := make([]complex128, n)
	in := make([]complex128, n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(in, src)
		c := cfg
		c.Injector = fault.NewSchedule(int64(i), faults()...)
		tr, err := core.New(n, c)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := tr.Transform(dst, in); err != nil {
			b.Fatal(err)
		}
	}
}

func oneMem() []fault.Fault {
	return []fault.Fault{{Site: fault.SiteInputMemory, Rank: -1, Index: -1, Mode: fault.SetConstant, Value: 7}}
}
func oneComp() []fault.Fault {
	return []fault.Fault{{Site: fault.SiteSubFFT1, Rank: -1, Occurrence: 2, Index: -1, Mode: fault.AddConstant, Value: 3}}
}

func BenchmarkTable1_OptOffline_1m(b *testing.B) {
	benchSchemeWithFaults(b, benchN, core.Config{Scheme: core.Offline, Variant: core.Optimized, MemoryFT: true}, oneMem)
}
func BenchmarkTable1_OptOnline_1c(b *testing.B) {
	benchSchemeWithFaults(b, benchN, core.Config{Scheme: core.Online, Variant: core.Optimized, MemoryFT: true}, oneComp)
}
func BenchmarkTable1_OptOnline_1m1c(b *testing.B) {
	benchSchemeWithFaults(b, benchN, core.Config{Scheme: core.Online, Variant: core.Optimized, MemoryFT: true},
		func() []fault.Fault { return append(oneMem(), oneComp()...) })
}
func BenchmarkTable1_OptOnline_1m2c(b *testing.B) {
	benchSchemeWithFaults(b, benchN, core.Config{Scheme: core.Online, Variant: core.Optimized, MemoryFT: true},
		func() []fault.Fault {
			return append(append(oneMem(), oneComp()...),
				fault.Fault{Site: fault.SiteSubFFT2, Rank: -1, Occurrence: 4, Index: -1, Mode: fault.AddConstant, Value: -2})
		})
}

// ------------------------------------------------------------- Fig 8(a)/(b)
// Parallel strong and weak scaling: FFTW / FT-FFTW / opt-FFTW / opt-FT-FFTW.

func benchParallel(b *testing.B, n, p int, cfg parallel.Config) {
	b.Helper()
	src := workload.Uniform(int64(n+p), n)
	pl, err := parallel.NewPlan(n, p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]complex128, n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Transform(dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8a_Strong(b *testing.B) {
	const n = 1 << 18 // paper: 2^26
	for _, p := range []int{2, 4, 8} {
		for _, v := range []struct {
			name string
			cfg  parallel.Config
		}{
			{"FFTW", parallel.Config{}},
			{"FTFFTW", parallel.Config{Protected: true}},
			{"optFFTW", parallel.Config{Optimized: true}},
			{"optFTFFTW", parallel.Config{Protected: true, Optimized: true}},
		} {
			b.Run(fmt.Sprintf("p%d/%s", p, v.name), func(b *testing.B) {
				benchParallel(b, n, p, v.cfg)
			})
		}
	}
}

func BenchmarkFig8b_Weak(b *testing.B) {
	const base = 1 << 15 // per-rank size (paper: 2^23 per core)
	for _, p := range []int{2, 4, 8} {
		for _, v := range []struct {
			name string
			cfg  parallel.Config
		}{
			{"FFTW", parallel.Config{}},
			{"optFTFFTW", parallel.Config{Protected: true, Optimized: true}},
		} {
			b.Run(fmt.Sprintf("p%d/%s", p, v.name), func(b *testing.B) {
				benchParallel(b, base*p, p, v.cfg)
			})
		}
	}
}

// --------------------------------------------------------------- Table 2/3
// Parallel execution with fault mixes ≈ fault-free (timely recovery).

func benchParallelWithFaults(b *testing.B, n, p int, faults func() []fault.Fault) {
	b.Helper()
	src := workload.Uniform(int64(n), n)
	dst := make([]complex128, n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := parallel.Config{Protected: true, Optimized: true}
		if faults != nil {
			cfg.Injector = fault.NewSchedule(int64(i), faults()...)
		}
		pl, err := parallel.NewPlan(n, p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := pl.Transform(dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

func table2Mix() []fault.Fault {
	return []fault.Fault{
		{Site: fault.SiteMessage, Rank: 0, Occurrence: 2, Index: -1, Mode: fault.AddConstant, Value: 5},
		{Site: fault.SiteMessage, Rank: 1, Occurrence: 3, Index: -1, Mode: fault.AddConstant, Value: -4},
		{Site: fault.SiteParallelFFT1, Rank: 0, Occurrence: 2, Index: -1, Mode: fault.AddConstant, Value: 3},
		{Site: fault.SiteParallelFFT2, Rank: 1, Occurrence: 4, Index: -1, Mode: fault.AddConstant, Value: 6},
	}
}

func BenchmarkTable2_OptFTFFTW_0(b *testing.B) {
	benchParallelWithFaults(b, 1<<18, 4, nil)
}
func BenchmarkTable2_OptFTFFTW_2m2c(b *testing.B) {
	benchParallelWithFaults(b, 1<<18, 4, table2Mix)
}
func BenchmarkTable3_OptFTFFTW_Weak_2m2c(b *testing.B) {
	benchParallelWithFaults(b, (1<<15)*4, 4, table2Mix)
}

// ----------------------------------------------------------------- Table 4
// Round-off probe: the cost of one protected sub-FFT checksum round-trip
// (the quantity whose max/estimate Table 4 reports).

func BenchmarkTable4_ChecksumRoundoffProbe(b *testing.B) {
	m := 1 << 8
	plan := fft.MustPlan(m, fft.Forward)
	cm := checksum.CheckVector(m)
	x := workload.Uniform(4, m)
	out := make([]complex128, m)
	var sink complex128
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cx := checksum.Dot(cm, x)
		plan.Execute(out, x)
		sink = checksum.DotOmega3(out) - cx
	}
	_ = sink
}

// ----------------------------------------------------------------- Table 5
// Detectability probe: one offline-scale vs one online-scale verification.

func BenchmarkTable5_OfflineVerification(b *testing.B) {
	n := benchN
	x := workload.Uniform(5, n)
	ra := checksum.CheckVector(n)
	var sink complex128
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = checksum.Dot(ra, x)
	}
	_ = sink
}

func BenchmarkTable5_OnlineVerification(b *testing.B) {
	m := 1 << 8
	x := workload.Uniform(6, m)
	cm := checksum.CheckVector(m)
	var sink complex128
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = checksum.Dot(cm, x)
	}
	_ = sink
}

// ----------------------------------------------------------------- Table 6
// One full bit-flip injection + recovery round through the public API.

func BenchmarkTable6_BitFlipRecovery(b *testing.B) {
	n := 1 << 14
	x := workload.Uniform(7, n)
	dst := make([]complex128, n)
	in := make([]complex128, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(in, x)
		sched := ftfft.NewFaultSchedule(int64(i), ftfft.Fault{
			Site: ftfft.SiteInputMemory, Rank: ftfft.AnyRank, Index: -1,
			Mode: ftfft.BitFlip, Bit: 53,
		})
		tr, err := ftfft.New(n, ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithInjector(sched))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := tr.Forward(context.Background(), dst, in); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------ Batch steady state
// ForwardBatch amortizes pooled execution contexts across many transforms;
// compare ns per transform against the equivalent loop of Forward calls.

func benchBatch(b *testing.B, items int, opts ...ftfft.Option) {
	b.Helper()
	const n = 1 << 12
	tr, err := ftfft.New(n, opts...)
	if err != nil {
		b.Fatal(err)
	}
	src := make([][]complex128, items)
	dst := make([][]complex128, items)
	for i := range src {
		src[i] = workload.Uniform(int64(i+1), n)
		dst[i] = make([]complex128, n)
	}
	ctx := context.Background()
	b.SetBytes(int64(16 * n * items))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.ForwardBatch(ctx, dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

func benchUnbatched(b *testing.B, items int, opts ...ftfft.Option) {
	b.Helper()
	const n = 1 << 12
	tr, err := ftfft.New(n, opts...)
	if err != nil {
		b.Fatal(err)
	}
	src := make([][]complex128, items)
	dst := make([][]complex128, items)
	for i := range src {
		src[i] = workload.Uniform(int64(i+1), n)
		dst[i] = make([]complex128, n)
	}
	ctx := context.Background()
	b.SetBytes(int64(16 * n * items))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range src {
			if _, err := tr.Forward(ctx, dst[j], src[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBatch_Seq_OnlineMemory_x32(b *testing.B) {
	benchBatch(b, 32, ftfft.WithProtection(ftfft.OnlineABFTMemory))
}
func BenchmarkBatch_Seq_OnlineMemory_x32_Unbatched(b *testing.B) {
	benchUnbatched(b, 32, ftfft.WithProtection(ftfft.OnlineABFTMemory))
}
func BenchmarkBatch_Parallel4_OnlineMemory_x16(b *testing.B) {
	benchBatch(b, 16, ftfft.WithRanks(4), ftfft.WithProtection(ftfft.OnlineABFTMemory))
}

// ------------------------------------------------------- Substrate microbench

func BenchmarkFFTEngine(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			p := fft.MustPlan(n, fft.Forward)
			x := workload.Uniform(1, n)
			dst := make([]complex128, n)
			b.SetBytes(int64(16 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Execute(dst, x)
			}
		})
	}
}

func BenchmarkFFTInPlaceRadix2(b *testing.B) {
	n := 1 << 14
	p := fft.MustPlan(n, fft.Forward)
	x := workload.Uniform(2, n)
	buf := make([]complex128, n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.ExecuteInPlace(buf)
	}
}

func BenchmarkCheckVectorOptimized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		checksum.CheckVector(benchN)
	}
}

func BenchmarkCheckVectorTrig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		checksum.CheckVectorTrig(benchN)
	}
}

func BenchmarkDotOmega3(b *testing.B) {
	x := workload.Uniform(3, benchN)
	var sink complex128
	b.SetBytes(int64(16 * benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = checksum.DotOmega3(x)
	}
	_ = sink
}

// --------------------------------------------- Real-input vs complex kernels

// BenchmarkKernelRFFT transforms n real samples through the packed
// half-length real path; BenchmarkKernelComplexSameLength transforms the
// same n samples as zero-imaginary complex data. The pair prices what the
// real path saves (about half the transform work and memory traffic) under
// no protection and under the flagship scheme.
func BenchmarkKernelRFFT(b *testing.B) {
	for _, prot := range []ftfft.Protection{ftfft.None, ftfft.OnlineABFTMemory} {
		b.Run(prot.String(), func(b *testing.B) {
			tr, err := ftfft.NewReal(benchN, ftfft.WithProtection(prot))
			if err != nil {
				b.Fatal(err)
			}
			src := make([]float64, benchN)
			for i, z := range workload.Uniform(3, benchN) {
				src[i] = real(z)
			}
			spec := make([]complex128, tr.SpectrumLen())
			ctx := context.Background()
			b.SetBytes(int64(8 * benchN))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Forward(ctx, spec, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKernelComplexSameLength(b *testing.B) {
	for _, prot := range []ftfft.Protection{ftfft.None, ftfft.OnlineABFTMemory} {
		b.Run(prot.String(), func(b *testing.B) {
			tr, err := ftfft.New(benchN, ftfft.WithProtection(prot))
			if err != nil {
				b.Fatal(err)
			}
			src := make([]complex128, benchN)
			for i, z := range workload.Uniform(3, benchN) {
				src[i] = complex(real(z), 0)
			}
			dst := make([]complex128, benchN)
			ctx := context.Background()
			b.SetBytes(int64(8 * benchN))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Forward(ctx, dst, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
