// The BenchmarkWire* family prices the transport seams of the distributed
// stack against each other on one machine:
//
//   - ChanShared   — the default in-process wire with the zero-copy
//     shared-memory scatter/gather fast path (the PR 4 baseline path);
//   - ChanMessage  — the same chan wire with the fast path masked, so the
//     explicit root-rank scatter/gather messages are priced on their own;
//   - UnixSocket   — the real byte-level codec over a Unix-domain socket
//     hub, worker ranks served in-process (goroutines, private executors),
//     so the delta over ChanMessage is serialization + kernel round trips,
//     not process-scheduling noise;
//   - Shm          — the same codec over the memory-mapped ring file, no
//     per-message syscalls or kernel copies: frames serialize straight into
//     the destination ring and are copied out once on receipt.
//
// BENCH_PR8.json holds the chan-vs-socket-vs-shm history from the shm
// wire's introduction; cmd/ftbench's dist workload is the end-to-end judge.
package ftfft_test

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"ftfft"
	"ftfft/internal/workload"
)

const (
	wireN = 1 << 14
	wireP = 4
)

func benchWireForward(b *testing.B, tr ftfft.Transform) {
	b.Helper()
	src := workload.Uniform(int64(wireN), wireN)
	dst := make([]complex128, wireN)
	ctx := context.Background()
	b.SetBytes(int64(16 * wireN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Forward(ctx, dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireChanShared_Parallel4(b *testing.B) {
	tr, err := ftfft.New(wireN, ftfft.WithRanks(wireP), ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		b.Fatal(err)
	}
	benchWireForward(b, tr)
}

func BenchmarkWireChanMessage_Parallel4(b *testing.B) {
	tr, err := ftfft.New(wireN, ftfft.WithRanks(wireP), ftfft.WithProtection(ftfft.OnlineABFTMemory),
		ftfft.WithTransport(ftfft.MessageOnlyTransport(wireP)))
	if err != nil {
		b.Fatal(err)
	}
	benchWireForward(b, tr)
}

func BenchmarkWireUnixSocket_Parallel4(b *testing.B) {
	sock := filepath.Join(b.TempDir(), "bench.sock")
	hub, err := ftfft.ListenHub("unix", sock, wireP)
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 1; i < wireP; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Private single-worker executors: in-process worker ranks must
			// not compete for the shared pool's gang admission.
			if err := ftfft.ServeWorker(ctx, "unix", sock, ftfft.WithWorkers(1)); err != nil {
				b.Error(err)
			}
		}()
	}
	tr, err := ftfft.New(wireN, ftfft.WithRanks(wireP), ftfft.WithProtection(ftfft.OnlineABFTMemory),
		ftfft.WithTransport(hub), ftfft.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	benchWireForward(b, tr)
	b.StopTimer()
	hub.Close()
	wg.Wait()
}

func BenchmarkWireShm_Parallel4(b *testing.B) {
	ring := filepath.Join(b.TempDir(), "bench.ring")
	hub, err := ftfft.ListenShmHub(ring, wireP)
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 1; i < wireP; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ftfft.ServeWorker(ctx, "shm", ring, ftfft.WithWorkers(1)); err != nil {
				b.Error(err)
			}
		}()
	}
	tr, err := ftfft.New(wireN, ftfft.WithRanks(wireP), ftfft.WithProtection(ftfft.OnlineABFTMemory),
		ftfft.WithTransport(hub), ftfft.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	benchWireForward(b, tr)
	b.StopTimer()
	hub.Close()
	wg.Wait()
}

// benchWireBatch prices the epoch-pipelined batch path: batchItems transforms
// in flight per op, windowed by the epoch ring and the root's executor budget.
const batchItems = 8

func benchWireBatch(b *testing.B, tr ftfft.Transform) {
	b.Helper()
	src := make([][]complex128, batchItems)
	dst := make([][]complex128, batchItems)
	for i := range src {
		src[i] = workload.Uniform(int64(wireN+i), wireN)
		dst[i] = make([]complex128, wireN)
	}
	ctx := context.Background()
	b.SetBytes(int64(batchItems * 16 * wireN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.ForwardBatch(ctx, dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSocketWorld opens a socket hub (mesh or star) with in-process worker
// ranks and returns the root transform plus a teardown func. rootWorkers
// sizes the root's private pool — and with it the pipelined batch window.
func benchSocketWorld(b *testing.B, mesh bool, rootWorkers, workerWorkers int) (ftfft.Transform, func()) {
	b.Helper()
	sock := filepath.Join(b.TempDir(), "bench.sock")
	listen := ftfft.ListenHub
	if mesh {
		listen = ftfft.ListenMeshHub
	}
	hub, err := listen("unix", sock, wireP)
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	for i := 1; i < wireP; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ftfft.ServeWorker(ctx, "unix", sock, ftfft.WithWorkers(workerWorkers)); err != nil {
				b.Error(err)
			}
		}()
	}
	tr, err := ftfft.New(wireN, ftfft.WithRanks(wireP), ftfft.WithProtection(ftfft.OnlineABFTMemory),
		ftfft.WithTransport(hub), ftfft.WithWorkers(rootWorkers))
	if err != nil {
		b.Fatal(err)
	}
	return tr, func() {
		hub.Close()
		wg.Wait()
		cancel()
	}
}

// BenchmarkWireUnixMesh_Parallel4 is BenchmarkWireUnixSocket_Parallel4 under
// a mesh hub: worker↔worker transpose frames go point-to-point, cutting the
// relay hop (two syscall round trips through the hub) from every exchange.
func BenchmarkWireUnixMesh_Parallel4(b *testing.B) {
	tr, stop := benchSocketWorld(b, true, 1, 1)
	benchWireForward(b, tr)
	b.StopTimer()
	stop()
}

// The BenchmarkWireBatch* family prices ForwardBatch over the real wires:
// batch-of-8 at the family geometry, the root's 4 workers opening the epoch
// ring's full window, so per-item cost shows how much of the wait bubbles the
// pipeline fills. Star vs mesh isolates the relay hop under load.
func BenchmarkWireBatchUnixSocketStar_Parallel4(b *testing.B) {
	tr, stop := benchSocketWorld(b, false, 4, 2)
	benchWireBatch(b, tr)
	b.StopTimer()
	stop()
}

func BenchmarkWireBatchUnixSocketMesh_Parallel4(b *testing.B) {
	tr, stop := benchSocketWorld(b, true, 4, 2)
	benchWireBatch(b, tr)
	b.StopTimer()
	stop()
}

func BenchmarkWireBatchShm_Parallel4(b *testing.B) {
	ring := filepath.Join(b.TempDir(), "bench.ring")
	hub, err := ftfft.ListenShmHub(ring, wireP)
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 1; i < wireP; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ftfft.ServeWorker(ctx, "shm", ring, ftfft.WithWorkers(2)); err != nil {
				b.Error(err)
			}
		}()
	}
	tr, err := ftfft.New(wireN, ftfft.WithRanks(wireP), ftfft.WithProtection(ftfft.OnlineABFTMemory),
		ftfft.WithTransport(hub), ftfft.WithWorkers(4))
	if err != nil {
		b.Fatal(err)
	}
	benchWireBatch(b, tr)
	b.StopTimer()
	hub.Close()
	wg.Wait()
}

// TestWireRecvAllocs pins the per-transform allocation budget of the message
// wires at the benchmark geometry. The chan wire's steady state allocates
// only the report roll-up; decode-in-place must keep the socket wire within
// a small constant of it (the PR 6 seed burned ~117 allocs/op on
// per-message decode buffers), and the shm wire likewise.
func TestWireRecvAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmark loops")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets hold for normal builds")
	}
	for _, tc := range []struct {
		name   string
		budget int
		bench  func(*testing.B)
	}{
		// Budgets are ceilings with slack over the measured steady state
		// (chan ≈ 10, socket ≈ 36, shm ≈ 16 at 2^14, p = 4 — the remainder
		// is per-transform plan contexts, shared by every wire), far below
		// the pre-decode-in-place socket cost of ~117 plus one header
		// allocation per frame. PR 9's epoch-lane serve rotation cost one
		// launch + reservation + watcher per lane round (socket crept to
		// ~62); the prebuilt mpi.Lane / exec.FixedGang rotation recovered it.
		{"chan", 20, BenchmarkWireChanMessage_Parallel4},
		{"socket", 44, BenchmarkWireUnixSocket_Parallel4},
		{"shm", 24, BenchmarkWireShm_Parallel4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := testing.Benchmark(tc.bench)
			if got := res.AllocsPerOp(); got > int64(tc.budget) {
				t.Fatalf("%s wire allocates %d/op, budget %d", tc.name, got, tc.budget)
			}
			t.Logf("%s wire: %d allocs/op, %d B/op", tc.name, res.AllocsPerOp(), res.AllocedBytesPerOp())
		})
	}
}
