package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var bg = context.Background()

// gang is the test shorthand for the production gang path: Reserve, Launch,
// join.
func gang(p *Pool, ctx context.Context, n int, fn func(context.Context, int) error) error {
	res, err := p.Reserve(ctx, n)
	if err != nil {
		return err
	}
	return res.Launch(ctx, fn).Wait()
}

// gangAsync is Reserve + Launch without the join.
func gangAsync(p *Pool, ctx context.Context, n int, fn func(context.Context, int) error) (*Gang, error) {
	res, err := p.Reserve(ctx, n)
	if err != nil {
		return nil, err
	}
	return res.Launch(ctx, fn), nil
}

func TestRunExecutesAllItems(t *testing.T) {
	p := New(4)
	const n = 100
	var done [n]atomic.Bool
	err := p.Run(bg, n, 4, func(_ context.Context, slot, item int) error {
		if slot < 0 || slot >= 4 {
			t.Errorf("slot %d out of range", slot)
		}
		if done[item].Swap(true) {
			t.Errorf("item %d executed twice", item)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range done {
		if !done[i].Load() {
			t.Fatalf("item %d never executed", i)
		}
	}
}

func TestRunSlotExclusive(t *testing.T) {
	// Two executions must never share a slot concurrently: each slot guards
	// private scratch in the callers.
	p := New(8)
	var inSlot [8]atomic.Int32
	err := p.Run(bg, 200, 8, func(_ context.Context, slot, _ int) error {
		if inSlot[slot].Add(1) != 1 {
			t.Errorf("slot %d shared concurrently", slot)
		}
		time.Sleep(time.Microsecond)
		inSlot[slot].Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunFirstErrorWins(t *testing.T) {
	p := New(4)
	sentinel := errors.New("boom")
	later := errors.New("later")
	err := p.Run(bg, 50, 4, func(_ context.Context, _, item int) error {
		switch item {
		case 7:
			return sentinel
		case 30:
			// Give item 7 time to fail first so index ordering, not timing,
			// decides (items are claimed in order, so 7 starts before 30).
			time.Sleep(5 * time.Millisecond)
			return later
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want first-by-index error, got %v", err)
	}
}

func TestRunNestedDoesNotDeadlock(t *testing.T) {
	// Saturate a 1-worker pool with nested Runs: caller-runs must keep
	// making progress inline.
	p := New(1)
	var count atomic.Int32
	err := p.Run(bg, 4, 4, func(ctx context.Context, _, _ int) error {
		return p.Run(ctx, 4, 4, func(context.Context, int, int) error {
			count.Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 16 {
		t.Fatalf("ran %d inner items, want 16", count.Load())
	}
}

func TestRunPanicContained(t *testing.T) {
	p := New(2)
	err := p.Run(bg, 4, 2, func(_ context.Context, _, item int) error {
		if item == 2 {
			panic("kaboom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("panic not captured: %+v", pe)
	}
}

func TestRunContextCanceled(t *testing.T) {
	p := New(2)
	ctx, cancel := context.WithCancel(bg)
	var ran atomic.Int32
	err := p.Run(ctx, 100, 1, func(context.Context, int, int) error {
		if ran.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n >= 100 {
		t.Fatalf("cancellation did not stop the group (ran %d)", n)
	}
}

func TestGangCoScheduled(t *testing.T) {
	// Gang members must all run concurrently: each blocks until every other
	// member has arrived (the rank-communication pattern).
	p := New(4)
	var wg sync.WaitGroup
	wg.Add(4)
	err := gang(p, bg, 4, func(context.Context, int) error {
		wg.Done()
		wg.Wait() // deadlocks unless all 4 are live simultaneously
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGangOversizedStillCoScheduled(t *testing.T) {
	// A gang larger than the budget must still co-schedule (transient
	// overflow goroutines) rather than deadlock.
	p := New(2)
	var wg sync.WaitGroup
	wg.Add(6)
	err := gang(p, bg, 6, func(context.Context, int) error {
		wg.Done()
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGangFirstErrorByIndex(t *testing.T) {
	p := New(4)
	e1, e3 := errors.New("one"), errors.New("three")
	err := gang(p, bg, 4, func(_ context.Context, i int) error {
		switch i {
		case 1:
			time.Sleep(5 * time.Millisecond)
			return e1
		case 3:
			return e3 // fails first in time, loses by index
		}
		return nil
	})
	if !errors.Is(err, e1) {
		t.Fatalf("want lowest-index error, got %v", err)
	}
}

func TestGangPanicContained(t *testing.T) {
	p := New(2)
	err := gang(p, bg, 2, func(_ context.Context, i int) error {
		if i == 1 {
			panic(i)
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
}

func TestGangAdmissionBoundsConcurrency(t *testing.T) {
	// With a budget of 4, two gangs of 3 cannot run together: admission is
	// atomic, so the second gang waits for the first to finish.
	p := New(4)
	var live, peak atomic.Int32
	task := func(context.Context, int) error {
		if l := live.Add(1); l > peak.Load() {
			peak.Store(l)
		}
		time.Sleep(2 * time.Millisecond)
		live.Add(-1)
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := gang(p, bg, 3, task); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak.Load() > 4 {
		t.Fatalf("peak %d concurrent gang tasks, budget 4 (partial admission?)", peak.Load())
	}
}

func TestGangAdmissionFIFOCancel(t *testing.T) {
	// A canceled waiter must leave the queue without wedging later gangs.
	p := New(2)
	release := make(chan struct{})
	hold, err := gangAsync(p, bg, 2, func(context.Context, int) error {
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	if _, err := gangAsync(p, ctx, 2, func(context.Context, int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from admission, got %v", err)
	}
	close(release)
	if err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
	// The queue must still admit after the cancellation.
	if err := gang(p, bg, 2, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnBoundedAndReused(t *testing.T) {
	p := New(3)
	for round := 0; round < 10; round++ {
		if err := p.Run(bg, 30, 3, func(context.Context, int, int) error {
			time.Sleep(10 * time.Microsecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Spawned(); s > 3 {
		t.Fatalf("spawned %d workers, budget 3", s)
	}
}

func TestCloseReleasesWorkersAndStaysUsable(t *testing.T) {
	p := New(3)
	if err := p.Run(bg, 12, 3, func(context.Context, int, int) error {
		time.Sleep(10 * time.Microsecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p.Spawned() == 0 {
		t.Fatal("no workers spawned before Close")
	}
	p.Close()
	p.Close() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for p.Spawned() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("workers not reclaimed after Close: %d still live", p.Spawned())
		}
		time.Sleep(time.Millisecond)
	}
	// The pool must remain fully usable after Close (spawn-per-task).
	var ran atomic.Int32
	if err := p.Run(bg, 8, 3, func(context.Context, int, int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Fatalf("post-Close Run executed %d/8 items", ran.Load())
	}
	if err := gang(p, bg, 3, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidGangSize(t *testing.T) {
	p := New(2)
	if _, err := p.Reserve(bg, 0); err == nil {
		t.Fatal("gang size 0 accepted")
	}
}

// TestFreelistLIFOBounded: Get hands back the most recently returned
// workspace, builds only when empty, and Put keeps at most the list's cap.
func TestFreelistLIFOBounded(t *testing.T) {
	const idle = 3
	f := NewFreelist[int](idle)
	builds := 0
	build := func() (int, error) { builds++; return -builds, nil }
	for i := 0; i < idle+3; i++ {
		f.Put(i)
	}
	if got, capacity := f.Idle(); got != idle || capacity != idle {
		t.Fatalf("Idle() = %d, %d after %d puts, want the cap %d", got, capacity, idle+3, idle)
	}
	for want := idle - 1; want >= 0; want-- {
		if got, err := f.Get(build); err != nil || got != want {
			t.Fatalf("Get() = %d, %v; want %d (LIFO)", got, err, want)
		}
	}
	if got, _ := f.Get(build); got != -1 || builds != 1 {
		t.Fatalf("Get() on an empty list = %d after %d builds, want a fresh build", got, builds)
	}
	wantErr := errors.New("build failed")
	if _, err := f.Get(func() (int, error) { return 0, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("build error not passed through: %v", err)
	}
	for calls, want := range map[int]int{0: MinIdle, 1: MinIdle, MinIdle + 1: MinIdle + 1, MaxIdle: MaxIdle, 64: MaxIdle} {
		if got := IdleCap(calls); got != want {
			t.Errorf("IdleCap(%d) = %d, want %d", calls, got, want)
		}
	}
}
