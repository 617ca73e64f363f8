package ftfft_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftfft"
	"ftfft/internal/workload"
)

// TestBoundedConcurrency is the refactor's acceptance test: 64 concurrent
// callers hammering one WithRanks(4) plan must not multiply into 64·4 rank
// goroutines. With a private WithWorkers(8) executor the library may add at
// most the 8 budgeted workers (plus a small constant for runtime background
// goroutines) on top of the 64 caller goroutines — the pre-refactor dispatch
// peaked at ~64·4 extra.
func TestBoundedConcurrency(t *testing.T) {
	const (
		callers = 64
		ranks   = 4
		budget  = 8
		iters   = 10
		n       = 1024
	)
	tr, err := ftfft.New(n, ftfft.WithRanks(ranks), ftfft.WithWorkers(budget),
		ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		t.Fatal(err)
	}
	src := workload.Uniform(50, n)

	// Warm the plan once so lazily-built pool state doesn't skew the peak.
	warm := make([]complex128, n)
	if _, err := tr.Forward(bg, warm, src); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	var (
		running atomic.Int32
		peak    atomic.Int32
		wg      sync.WaitGroup
	)
	running.Store(1) // sampler sentinel: keep sampling until all callers exit
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		for running.Load() > 0 {
			g := int32(runtime.NumGoroutine())
			for {
				p := peak.Load()
				if g <= p || peak.CompareAndSwap(p, g) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		running.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer running.Add(-1)
			dst := make([]complex128, n)
			in := workload.Uniform(seed, n)
			for i := 0; i < iters; i++ {
				if _, err := tr.Forward(bg, dst, in); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(100 + c))
	}
	wg.Wait()
	running.Add(-1)
	<-sampleDone

	// base already counts this test's sampler and the runtime's background
	// goroutines; the budget plus a small constant (sampler, timer wheel,
	// GC workers that wake mid-run) is the allowance beyond the callers.
	const slack = 16
	limit := base + callers + budget + slack
	if p := int(peak.Load()); p > limit {
		t.Fatalf("goroutine peak %d exceeds bound %d (base %d + %d callers + %d workers + %d slack): dispatch is not budget-bounded",
			p, limit, base, callers, budget, slack)
	}
}

// TestExecutorDispatchBitIdentity: dispatch is not arithmetic. Whatever
// executor a plan draws — the process default, a 1-worker private pool (full
// serialization), a wide private pool, or a shared Executor — Forward and
// ForwardBatch outputs must be bit-identical across all of them, for the
// parallel, 2-D, and batch paths.
func TestExecutorDispatchBitIdentity(t *testing.T) {
	shared, err := ftfft.NewExecutor(3)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", shared.Workers())
	}
	for _, tc := range []struct {
		name string
		n    int
		opts []ftfft.Option
	}{
		{"parallel", 1024, []ftfft.Option{ftfft.WithRanks(4), ftfft.WithProtection(ftfft.OnlineABFTMemory)}},
		{"grid", 32 * 64, []ftfft.Option{ftfft.WithDims(32, 64), ftfft.WithRanks(4), ftfft.WithProtection(ftfft.OnlineABFT)}},
		{"nd3", 16 * 8 * 12, []ftfft.Option{ftfft.WithDims(16, 8, 12), ftfft.WithRanks(4), ftfft.WithProtection(ftfft.OnlineABFTMemory)}},
		{"seq", 512, []ftfft.Option{ftfft.WithProtection(ftfft.OnlineABFTMemory)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const items = 5
			src := make([][]complex128, items)
			for i := range src {
				src[i] = workload.Uniform(int64(60+i), tc.n)
			}
			// Reference: the default-executor plan, unbatched.
			ref, err := ftfft.New(tc.n, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]complex128, items)
			for i := range want {
				want[i] = make([]complex128, tc.n)
				if _, err := ref.Forward(bg, want[i], src[i]); err != nil {
					t.Fatal(err)
				}
			}
			for _, v := range []struct {
				name string
				opt  ftfft.Option
			}{
				{"workers1", ftfft.WithWorkers(1)},
				{"workers8", ftfft.WithWorkers(8)},
				{"shared", ftfft.WithExecutor(shared)},
			} {
				tr, err := ftfft.New(tc.n, append(append([]ftfft.Option{}, tc.opts...), v.opt)...)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]complex128, tc.n)
				for i := range src {
					if _, err := tr.Forward(bg, got, src[i]); err != nil {
						t.Fatalf("%s: %v", v.name, err)
					}
					for j := range got {
						if got[j] != want[i][j] {
							t.Fatalf("%s: Forward item %d differs at %d: executor choice changed the arithmetic", v.name, i, j)
						}
					}
				}
				dstB := make([][]complex128, items)
				for i := range dstB {
					dstB[i] = make([]complex128, tc.n)
				}
				if _, err := tr.ForwardBatch(bg, dstB, src); err != nil {
					t.Fatalf("%s batch: %v", v.name, err)
				}
				for i := range dstB {
					for j := range dstB[i] {
						if dstB[i][j] != want[i][j] {
							t.Fatalf("%s: batch item %d differs at %d", v.name, i, j)
						}
					}
				}
			}
		})
	}
}

// TestSharedExecutorAcrossPlans: one Executor backing several plans of
// different kinds must serve interleaved concurrent traffic correctly.
func TestSharedExecutorAcrossPlans(t *testing.T) {
	ex, err := ftfft.NewExecutor(4)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ftfft.New(1024, ftfft.WithRanks(4), ftfft.WithExecutor(ex))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := ftfft.New(16*16, ftfft.WithDims(16, 16), ftfft.WithRanks(2), ftfft.WithExecutor(ex))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for c := 0; c < 4; c++ {
		wg.Add(2)
		go func(seed int64) {
			defer wg.Done()
			src := workload.Uniform(seed, 1024)
			dst := make([]complex128, 1024)
			for i := 0; i < 5; i++ {
				if _, err := par.Forward(bg, dst, src); err != nil {
					errc <- fmt.Errorf("parallel: %w", err)
					return
				}
			}
		}(int64(70 + c))
		go func(seed int64) {
			defer wg.Done()
			src := workload.Uniform(seed, 256)
			dst := make([]complex128, 256)
			for i := 0; i < 5; i++ {
				if _, err := grid.Forward(bg, dst, src); err != nil {
					errc <- fmt.Errorf("grid: %w", err)
					return
				}
			}
		}(int64(80 + c))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestBatchCancellationStopsSubmission: a context canceled mid-batch must
// stop the submission pipeline on every executor kind and surface the
// cancellation.
func TestBatchCancellationStopsSubmission(t *testing.T) {
	for _, opts := range [][]ftfft.Option{
		{ftfft.WithRanks(4)},
		{ftfft.WithProtection(ftfft.OnlineABFTMemory)},
		{ftfft.WithDims(16, 16)},
	} {
		n := 256
		tr, err := ftfft.New(n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		const items = 64
		src := make([][]complex128, items)
		dst := make([][]complex128, items)
		for i := range src {
			src[i] = workload.Uniform(int64(90+i), n)
			dst[i] = make([]complex128, n)
		}
		ctx, cancel := context.WithCancel(bg)
		cancel()
		if _, err := tr.ForwardBatch(ctx, dst, src); err == nil {
			t.Errorf("%T: canceled batch returned nil error", tr)
		}
	}
}
