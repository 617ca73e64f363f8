// Package tune is the plan-time autotuner beneath the public WithTuning
// option, modelled on FFTW's measured planning. It tunes one knob: the
// Bluestein convolution length. A leaf size with a prime factor beyond the
// kernel's butterflies runs as a circular convolution of some length
// m ≥ 2·leaf−1, and the legal lengths (fft.ConvCandidates) differ by about
// 1.6× in speed on one host while the convCost heuristic ranks them blind.
// Under measured tuning the plan builder times the ladder and the winner is
// remembered in a process-wide bounded wisdom table, exportable as a
// versioned checksummed byte blob so a fleet tunes once on a canary and
// ships the file. Other plan choices (flat vs recursive kernel, nd tile
// size, ForwardBatch window) are not tuned: their candidates never
// separated beyond noise, or always resolved to the planner's default.
//
// Determinism contract: wisdom stores *choices*, not timings. Two plans
// built from the same wisdom table make identical choices and therefore
// produce bit-identical outputs — measurement noise can change which
// candidate wins on a given run, never what a recorded winner computes.
// The tuning policy — heuristics only, measure on a miss, or follow wisdom
// without measuring — is the planner's (ftfft.TuningMode); plans built with
// the default heuristics never consult the table.
package tune

import (
	"slices"
	"sync"

	"ftfft/internal/fft"
)

// MaxLeaf bounds the leaf sizes wisdom can key. Every legal convolution
// length for a leaf ≤ MaxLeaf is below 4·MaxLeaf = 2^30, so the ladder is
// computed without overflow on every platform; larger leaves (transforms of
// at least 4 GiB) go untuned.
const MaxLeaf = 1 << 28

// Key is a wisdom key: the Bluestein leaf size a convolution length was
// measured for. The choice is an engine property, so every plan that
// carries the leaf shares the entry.
type Key int

// KeyFor returns the wisdom key for a leaf size. ok is false unless leaf is
// its own Bluestein leaf (fft.BluesteinLeaf(leaf) == leaf) and at most
// MaxLeaf: other sizes have no convolution knob, or go untuned.
func KeyFor(leaf int) (k Key, ok bool) {
	if leaf < 2 || leaf > MaxLeaf || fft.BluesteinLeaf(leaf) != leaf {
		return 0, false
	}
	return Key(leaf), true
}

// legal reports whether the table may hold (k, m): k is a wisdom key
// (KeyFor) and m one of the leaf's convolution lengths (fft.ConvCandidates).
func legal(k Key, m int) bool {
	if _, ok := KeyFor(int(k)); !ok {
		return false
	}
	return slices.Contains(fft.ConvCandidates(int(k)), m)
}

// DefaultCap is the wisdom table's entry cap: far above any realistic plan
// mix (one entry per distinct Bluestein leaf) while bounding a pathological
// caller the way the fft kernel cache bounds plan tables.
const DefaultCap = 512

// Table is a bounded wisdom table. The zero value is not usable; use
// NewTable. All methods are safe for concurrent use.
type Table struct {
	mu    sync.Mutex
	cap   int
	m     map[Key]int
	order []Key // insertion order, for FIFO eviction past cap
	epoch uint64
}

// NewTable creates a wisdom table holding at most cap entries (values < 1
// get DefaultCap).
func NewTable(cap int) *Table {
	if cap < 1 {
		cap = DefaultCap
	}
	return &Table{cap: cap, m: make(map[Key]int)}
}

// Lookup returns the recorded convolution length for k.
func (t *Table) Lookup(k Key) (int, bool) {
	t.mu.Lock()
	m, ok := t.m[k]
	t.mu.Unlock()
	return m, ok
}

// Record stores a measured winner. An illegal pair — including m = 0,
// "nothing measured" — is ignored, so every entry stays importable.
func (t *Table) Record(k Key, m int) {
	if !legal(k, m) {
		return
	}
	t.mu.Lock()
	t.put(k, m)
	t.mu.Unlock()
}

// put stores one entry; the caller holds t.mu. When the table is full the
// oldest entry is evicted, mirroring the fft kernel cache's bound.
func (t *Table) put(k Key, m int) {
	if _, exists := t.m[k]; !exists {
		if len(t.order) >= t.cap {
			oldest := t.order[0]
			t.order = t.order[1:]
			delete(t.m, oldest)
		}
		t.order = append(t.order, k)
	}
	t.m[k] = m
}

// Len reports the current entry count.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Epoch returns the table's import generation. Plan caches keyed on it
// cannot serve a plan tuned under different wisdom: Import and Forget bump
// the epoch, Record does not (local measurement refines, it cannot conflict
// with a cached plan's own build-time choices).
func (t *Table) Epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Forget clears the table and bumps the epoch.
func (t *Table) Forget() {
	t.mu.Lock()
	t.m = make(map[Key]int)
	t.order = nil
	t.epoch++
	t.mu.Unlock()
}

// global is the process-wide table behind the public ftfft wisdom API.
var global = NewTable(DefaultCap)

// Lookup consults the process-wide table.
func Lookup(k Key) (int, bool) { return global.Lookup(k) }

// Record stores into the process-wide table.
func Record(k Key, m int) { global.Record(k, m) }

// Epoch returns the process-wide table's import generation.
func Epoch() uint64 { return global.Epoch() }

// Forget clears the process-wide table.
func Forget() { global.Forget() }

// Export serializes the process-wide table.
func Export() []byte { return global.Export() }

// Import merges a wisdom blob into the process-wide table.
func Import(data []byte) error { return global.Import(data) }
