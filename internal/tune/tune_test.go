package tune

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"ftfft/internal/fft"
)

// leaves returns the first count Bluestein leaf sizes from 37 up (every
// odd size with no factor ≤ 31 — 37 is the smallest).
func leaves(count int) []Key {
	var ks []Key
	for v := 37; len(ks) < count; v += 2 {
		if k, ok := KeyFor(v); ok {
			ks = append(ks, k)
		}
	}
	return ks
}

// sampleTable records one legal length per leaf, walking each ladder so
// different rungs are exercised, and returns the recorded choices.
func sampleTable() (*Table, map[Key]int) {
	tb := NewTable(0)
	want := map[Key]int{}
	for i, k := range append(leaves(6), 4099, 40961) {
		ladder := fft.ConvCandidates(int(k))
		m := ladder[i%len(ladder)]
		tb.Record(k, m)
		want[k] = m
	}
	return tb, want
}

// blob builds a checksummed wisdom blob of the given version from raw
// (leaf, m) pairs, bypassing the encoder's validity guarantees.
func blob(version uint16, pairs ...[2]uint64) []byte {
	buf := append([]byte(nil), wisdomMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pairs)))
	for _, p := range pairs {
		buf = binary.LittleEndian.AppendUint64(buf, p[0])
		buf = binary.LittleEndian.AppendUint64(buf, p[1])
	}
	h := fnv.New64a()
	h.Write(buf)
	return binary.LittleEndian.AppendUint64(buf, h.Sum64())
}

// TestWisdomRoundTrip is the export∘import identity property: a table's
// entries survive the wire byte-exactly, and the re-export of an imported
// blob reproduces it bit for bit.
func TestWisdomRoundTrip(t *testing.T) {
	src, want := sampleTable()
	data := src.Export()

	dst := NewTable(0)
	if err := dst.Import(data); err != nil {
		t.Fatalf("Import: %v", err)
	}
	if dst.Len() != len(want) {
		t.Fatalf("imported %d entries, want %d", dst.Len(), len(want))
	}
	for k, m := range want {
		if got, ok := dst.Lookup(k); !ok || got != m {
			t.Fatalf("leaf %d: got (%d, %v), want (%d, true)", k, got, ok, m)
		}
	}
	if again := dst.Export(); !bytes.Equal(again, data) {
		t.Fatalf("re-export differs: %d bytes vs %d", len(again), len(data))
	}
}

// TestWisdomKeyForOverflow pins which sizes have a wisdom key: only
// Bluestein leaves up to MaxLeaf. Larger leaves go untuned instead of
// walking a convolution ladder whose 2·leaf−1 can overflow.
func TestWisdomKeyForOverflow(t *testing.T) {
	for _, leaf := range []int{37, 1031, 4099} {
		if _, ok := KeyFor(leaf); !ok {
			t.Errorf("KeyFor(%d) refused a Bluestein leaf", leaf)
		}
	}
	for _, leaf := range []int{-1, 0, 1, 31, 4096, 3 * 1024, 2 * 4099, MaxLeaf + 1, math.MaxInt} {
		if _, ok := KeyFor(leaf); ok {
			t.Errorf("KeyFor(%d) accepted a size without a tunable leaf", leaf)
		}
	}
	if m := fft.ConvCandidates(MaxLeaf); m[len(m)-1] >= 4*MaxLeaf {
		t.Fatalf("largest candidate for MaxLeaf is %d, not below 4·MaxLeaf", m[len(m)-1])
	}
}

// TestWisdomImportRejects pins the reject paths: corrupted checksum, bad
// magic, truncation, trailing bytes, the retired version 1, non-canonical
// order, and entries that would force an off-ladder plan — a leaf that is
// not a Bluestein leaf or is past MaxLeaf, or a length that is not one of
// the leaf's candidates (even one ≥ 2·leaf−1, prime, or huge).
func TestWisdomImportRejects(t *testing.T) {
	src, _ := sampleTable()
	data := src.Export()
	cases := map[string][]byte{
		"empty":     {},
		"short":     data[:10],
		"truncated": data[:len(data)-9],
		"trailing":  append(append([]byte{}, data...), 0),
		"version1":  blob(1, [2]uint64{4099, 9216}),
		"version3":  blob(3, [2]uint64{4099, 9216}),
		"unsorted":  blob(wisdomVersion, [2]uint64{4099, 9216}, [2]uint64{1031, 2304}),
		"duplicate": blob(wisdomVersion, [2]uint64{4099, 9216}, [2]uint64{4099, 9216}),
		"pow2 leaf": blob(wisdomVersion, [2]uint64{4096, 8192}),
		"zero leaf": blob(wisdomVersion, [2]uint64{0, 1}),
		"huge leaf": blob(wisdomVersion, [2]uint64{math.MaxInt64, 1}),
		"wrap leaf": blob(wisdomVersion, [2]uint64{math.MaxUint64, 1}),
		"m=8200":    blob(wisdomVersion, [2]uint64{4099, 8200}),
		"m=8209":    blob(wisdomVersion, [2]uint64{4099, 8209}), // prime: Bluestein inside Bluestein
		"m=2^26":    blob(wisdomVersion, [2]uint64{4099, 1 << 26}),
		"m=0":       blob(wisdomVersion, [2]uint64{4099, 0}),
		"m too big": blob(wisdomVersion, [2]uint64{4099, math.MaxUint64}),
		"mixed":     blob(wisdomVersion, [2]uint64{1031, 2304}, [2]uint64{4099, 8209}),
	}
	past := MaxLeaf + 1 // odd; walk to the first Bluestein leaf beyond the bound
	for fft.BluesteinLeaf(past) != past {
		past += 2
	}
	cases["past MaxLeaf"] = blob(wisdomVersion, [2]uint64{uint64(past), uint64(fft.ConvCandidates(past)[0])})
	flipped := append([]byte{}, data...)
	flipped[len(flipped)/2] ^= 1
	cases["bitflip"] = flipped
	badMagic := append([]byte{}, data...)
	badMagic[0] ^= 0xff
	cases["magic"] = badMagic
	for name, data := range cases {
		tb := NewTable(0)
		if err := tb.Import(data); err == nil {
			t.Errorf("%s: Import accepted a malformed blob", name)
		} else if tb.Len() != 0 || tb.Epoch() != 0 {
			t.Errorf("%s: rejected blob changed the table", name)
		}
	}
	if err := NewTable(0).Import(cases["version1"]); !strings.Contains(err.Error(), "re-tune") {
		t.Errorf("version-1 rejection does not say to re-tune: %v", err)
	}
	if err := NewTable(0).Import(blob(wisdomVersion, [2]uint64{1031, 2304}, [2]uint64{4099, 9216})); err != nil {
		t.Fatalf("a legal hand-built blob was rejected: %v", err)
	}
}

// TestWisdomRecordOffLadder pins that Record keeps the table importable:
// lengths off the leaf's ladder are dropped.
func TestWisdomRecordOffLadder(t *testing.T) {
	tb := NewTable(0)
	for _, m := range []int{0, 8200, 8209, 1 << 26} {
		tb.Record(4099, m)
	}
	if tb.Len() != 0 {
		t.Fatalf("Record stored an off-ladder length: %d entries", tb.Len())
	}
}

// TestWisdomEpoch pins the epoch contract: Import and Forget bump it,
// Record does not — serve plan caches keyed on the epoch must not churn
// under local measurement, only under wisdom changes.
func TestWisdomEpoch(t *testing.T) {
	tb := NewTable(0)
	e0 := tb.Epoch()
	tb.Record(4099, 16384)
	if tb.Epoch() != e0 {
		t.Fatal("Record bumped the epoch")
	}
	data := tb.Export()
	if err := tb.Import(data); err != nil {
		t.Fatal(err)
	}
	if tb.Epoch() != e0+1 {
		t.Fatalf("Import epoch: got %d, want %d", tb.Epoch(), e0+1)
	}
	tb.Forget()
	if tb.Epoch() != e0+2 {
		t.Fatalf("Forget epoch: got %d, want %d", tb.Epoch(), e0+2)
	}
	if tb.Len() != 0 {
		t.Fatal("Forget left entries behind")
	}
}

// TestWisdomTableBounded mirrors the fft kernel-cache eviction tests: the
// table never exceeds its cap, the oldest entry is evicted first, and an
// oversized import is rejected whole.
func TestWisdomTableBounded(t *testing.T) {
	const cap = 8
	ks := leaves(3 * cap)
	shortest := func(k Key) int { return fft.ConvCandidates(int(k))[0] }
	tb := NewTable(cap)
	for _, k := range ks {
		tb.Record(k, shortest(k))
		if tb.Len() > cap {
			t.Fatalf("table grew to %d entries, cap %d", tb.Len(), cap)
		}
	}
	if tb.Len() != cap {
		t.Fatalf("table holds %d entries, want %d", tb.Len(), cap)
	}
	if _, ok := tb.Lookup(ks[0]); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := tb.Lookup(ks[len(ks)-1]); !ok {
		t.Fatal("newest entry missing")
	}

	big := NewTable(0)
	for _, k := range ks[:cap+1] {
		big.Record(k, shortest(k))
	}
	if err := tb.Import(big.Export()); err == nil {
		t.Fatal("Import accepted a blob larger than the table cap")
	}
}

// TestMeasureConvLegal pins that the measured winner is always a legal
// candidate (one of the shared ladder's lengths m ≥ 2·leaf−1) and that
// non-Bluestein sizes are refused — the tuner can pick a different winner
// than the heuristic but never an illegal one.
func TestMeasureConvLegal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs timing sweeps")
	}
	const leaf = 4099
	if m := MeasureConv(leaf); !legal(leaf, m) {
		t.Fatalf("winner %d is not in ConvCandidates(%d) = %v", m, leaf, fft.ConvCandidates(leaf))
	}
	for _, n := range []int{16, 1024, 3 * 1024} {
		if got := MeasureConv(n); got != 0 {
			t.Errorf("MeasureConv(%d) = %d, want 0 (no Bluestein leaf)", n, got)
		}
	}
}

// TestItersDeterministic pins that measurement work depends only on n.
func TestItersDeterministic(t *testing.T) {
	for _, n := range []int{1, 64, 4099, 1 << 14, 1 << 22} {
		a, b := Iters(n), Iters(n)
		if a != b || a < 1 {
			t.Fatalf("Iters(%d): %d then %d", n, a, b)
		}
	}
	if Iters(16) != 64 {
		t.Fatalf("small-n iteration cap: got %d, want 64", Iters(16))
	}
	if Iters(1<<30) != 3 {
		t.Fatalf("large-n iteration floor: got %d, want 3", Iters(1<<30))
	}
}

func ExampleTable() {
	tb := NewTable(0)
	k, _ := KeyFor(4099)
	tb.Record(k, 16384)
	blob := tb.Export()

	fresh := NewTable(0)
	_ = fresh.Import(blob)
	v, ok := fresh.Lookup(k)
	fmt.Println(v, ok)
	// Output: 16384 true
}
