// The BenchmarkServe* family prices FFT-as-a-service end to end: framed
// request over a Unix socket, §5 wire-checksum verification, plan-cache
// lookup, pool-admitted protected transform, checksummed response — against
// the local Transform the server wraps. Sustained measures steady-state
// throughput under concurrent clients on one plan (the cache hit path);
// Mixed interleaves sizes and protection schemes across the cache the way a
// shared service sees traffic; Latency prices a single lonely client. Each
// run also reports the p99 request latency alongside ns/op (mean), since a
// service is judged by its tail.
//
// BENCH_PR7.json holds the family's history from the server's introduction;
// cmd/ftbench's serve workload is the end-to-end judge.
package ftfft_test

import (
	"context"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"ftfft"
	"ftfft/internal/workload"
)

// benchServer starts a unix-socket server for the benchmark's lifetime.
func benchServer(b *testing.B, cfg ftfft.ServerConfig) (network, addr string) {
	b.Helper()
	sock := filepath.Join(b.TempDir(), "bench-serve.sock")
	srv, err := ftfft.ListenServe("unix", sock, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return "unix", sock
}

// reportP99 folds per-request latencies into the benchmark output.
func reportP99(b *testing.B, lat []time.Duration) {
	b.Helper()
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
}

// BenchmarkServeSustained is the steady-state QPS number: several clients
// hammering one (n, protection) plan concurrently, every request riding the
// plan-cache hit path. ns/op is the sustained per-request cost (QPS =
// clients·1e9/ns-per-op with 4 in-flight streams).
func BenchmarkServeSustained(b *testing.B) {
	const n, clients = 1 << 12, 4
	network, addr := benchServer(b, ftfft.ServerConfig{})
	src := workload.Uniform(int64(n), n)
	opts := []ftfft.Option{ftfft.WithProtection(ftfft.OnlineABFTMemory)}
	ctx := context.Background()

	// Warm the plan cache so b.N measures the hit path, not the build.
	warm, err := ftfft.Dial(network, addr)
	if err != nil {
		b.Fatal(err)
	}
	warmDst := make([]complex128, n)
	if _, err := warm.Forward(ctx, warmDst, src, opts...); err != nil {
		b.Fatal(err)
	}
	warm.Close()

	lats := make([][]time.Duration, clients)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := ftfft.Dial(network, addr)
			if err != nil {
				b.Error(err)
				return
			}
			defer c.Close()
			dst := make([]complex128, n)
			for i := k; i < b.N; i += clients {
				t0 := time.Now()
				if _, err := c.Forward(ctx, dst, src, opts...); err != nil {
					b.Error(err)
					return
				}
				lats[k] = append(lats[k], time.Since(t0))
			}
		}(k)
	}
	wg.Wait()
	b.StopTimer()
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	reportP99(b, all)
}

// BenchmarkServeMixed is the shared-service traffic shape: concurrent
// clients rotating through mixed sizes and protection schemes, exercising
// plan-cache multiplexing rather than one hot entry.
func BenchmarkServeMixed(b *testing.B) {
	const clients = 4
	sizes := []int{1 << 8, 1 << 10, 1 << 12}
	prots := []ftfft.Protection{ftfft.None, ftfft.OnlineABFT, ftfft.OnlineABFTMemory}
	network, addr := benchServer(b, ftfft.ServerConfig{})
	ctx := context.Background()

	srcs := make([][]complex128, len(sizes))
	for i, n := range sizes {
		srcs[i] = workload.Uniform(int64(n), n)
	}
	// Warm every (size, protection) plan.
	warm, err := ftfft.Dial(network, addr)
	if err != nil {
		b.Fatal(err)
	}
	for i, n := range sizes {
		dst := make([]complex128, n)
		for _, p := range prots {
			if _, err := warm.Forward(ctx, dst, srcs[i], ftfft.WithProtection(p)); err != nil {
				b.Fatal(err)
			}
		}
	}
	warm.Close()

	lats := make([][]time.Duration, clients)
	b.ResetTimer()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := ftfft.Dial(network, addr)
			if err != nil {
				b.Error(err)
				return
			}
			defer c.Close()
			dst := make([]complex128, sizes[len(sizes)-1])
			for i := k; i < b.N; i += clients {
				si := (k + i) % len(sizes)
				prot := prots[(k+i/len(sizes))%len(prots)]
				t0 := time.Now()
				if _, err := c.Forward(ctx, dst[:sizes[si]], srcs[si], ftfft.WithProtection(prot)); err != nil {
					b.Error(err)
					return
				}
				lats[k] = append(lats[k], time.Since(t0))
			}
		}(k)
	}
	wg.Wait()
	b.StopTimer()
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	reportP99(b, all)
}

// BenchmarkServeLatency is the lonely-client number: one connection,
// strictly sequential requests, so ns/op is the full unloaded round-trip
// (wire + checksums + transform) and the service overhead is the delta
// against BenchmarkServeLocalBaseline.
func BenchmarkServeLatency(b *testing.B) {
	const n = 1 << 12
	network, addr := benchServer(b, ftfft.ServerConfig{})
	c, err := ftfft.Dial(network, addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	src := workload.Uniform(int64(n), n)
	dst := make([]complex128, n)
	opts := []ftfft.Option{ftfft.WithProtection(ftfft.OnlineABFTMemory)}
	ctx := context.Background()
	if _, err := c.Forward(ctx, dst, src, opts...); err != nil {
		b.Fatal(err)
	}
	lat := make([]time.Duration, 0, b.N)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := c.Forward(ctx, dst, src, opts...); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	reportP99(b, lat)
}

// BenchmarkServeLocalBaseline is the same transform without the service:
// the in-process Transform the server would run, pricing what the wire,
// checksums and scheduling add.
func BenchmarkServeLocalBaseline(b *testing.B) {
	const n = 1 << 12
	tr, err := ftfft.New(n, ftfft.WithProtection(ftfft.OnlineABFTMemory))
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
