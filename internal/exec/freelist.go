package exec

import "sync"

// MinIdle and MaxIdle bound IdleCap.
const MinIdle, MaxIdle = 4, 16

// IdleCap is how many idle workspaces a plan retains when its executor can
// run calls of it at once: one each, so a steady stream of concurrent calls
// finds a warm workspace instead of building one. The floor keeps room for
// callers that run transforms on their own goroutines beside a small pool;
// the ceiling bounds what a drained burst pins (at 2^20 one workspace holds
// about 48 MiB).
func IdleCap(calls int) int { return min(max(calls, MinIdle), MaxIdle) }

// Freelist is the bounded LIFO of per-call workspaces every plan draws
// from: each in-flight call takes one, so concurrent calls never share
// mutable state. It is an explicit slice, not a sync.Pool, so a single
// caller's steady state reuses one workspace and stays allocation-free
// across garbage collections.
type Freelist[T any] struct {
	mu   sync.Mutex
	free []T // its capacity is the idle bound and never grows
}

// NewFreelist returns an empty freelist that retains at most idle
// workspaces.
func NewFreelist[T any](idle int) *Freelist[T] {
	return &Freelist[T]{free: make([]T, 0, idle)}
}

// Get pops the most recently returned workspace, or builds a fresh one
// with build when the list is empty.
func (f *Freelist[T]) Get(build func() (T, error)) (T, error) {
	f.mu.Lock()
	if k := len(f.free); k > 0 {
		x := f.free[k-1]
		var zero T
		f.free[k-1] = zero
		f.free = f.free[:k-1]
		f.mu.Unlock()
		return x, nil
	}
	f.mu.Unlock()
	return build()
}

// Put returns a workspace, dropping it when the list is full.
func (f *Freelist[T]) Put(x T) {
	f.mu.Lock()
	if len(f.free) < cap(f.free) {
		f.free = append(f.free, x)
	}
	f.mu.Unlock()
}

// Idle reports how many workspaces the list currently retains and the most
// it ever retains.
func (f *Freelist[T]) Idle() (idle, capacity int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.free), cap(f.free)
}
