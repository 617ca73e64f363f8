package tune

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
)

// Wisdom wire format (little-endian), versioned and checksummed like the
// serve wire's frames:
//
//	magic   [4]byte  "FTWS"
//	version uint16   (currently 2)
//	count   uint32   entries that follow, ≤ the table cap
//	entry × count:
//	    leaf uint64  Bluestein leaf size (KeyFor(leaf) ok)
//	    m    uint64  convolution length, one of fft.ConvCandidates(leaf)
//	checksum uint64   FNV-64a of every preceding byte
//
// Entries are sorted by strictly increasing leaf, so every accepted blob
// has exactly one byte representation: importing it into a fresh table and
// re-exporting reproduces the input bit for bit (the FuzzWisdomDecode
// contract, mirroring FuzzFrameDecode). Version 1 carried per-geometry keys
// for knobs that no longer exist; it is rejected, and re-tuning regenerates
// the wisdom.
const (
	wisdomVersion = 2
	headerLen     = 4 + 2 + 4
	entryLen      = 8 + 8
)

var wisdomMagic = [4]byte{'F', 'T', 'W', 'S'}

// Export serializes the table's entries in canonical order.
func (t *Table) Export() []byte {
	t.mu.Lock()
	keys := make([]Key, 0, len(t.m))
	for k := range t.m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf := make([]byte, 0, headerLen+len(keys)*entryLen+8)
	buf = append(buf, wisdomMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, wisdomVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.m[k]))
	}
	t.mu.Unlock()
	h := fnv.New64a()
	h.Write(buf)
	return binary.LittleEndian.AppendUint64(buf, h.Sum64())
}

// Import validates a wisdom blob and merges its entries into the table,
// bumping the epoch so plan caches keyed on it cannot mix plans tuned under
// different wisdom. A malformed blob — including any entry whose leaf is
// not a Bluestein leaf within MaxLeaf or whose length is off that leaf's
// ladder — is rejected whole: no partial merge.
func (t *Table) Import(data []byte) error {
	if len(data) < headerLen+8 {
		return fmt.Errorf("tune: wisdom blob too short (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return fmt.Errorf("tune: wisdom checksum mismatch")
	}
	if [4]byte(body[:4]) != wisdomMagic {
		return fmt.Errorf("tune: bad wisdom magic")
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != wisdomVersion {
		return fmt.Errorf("tune: unsupported wisdom version %d (want %d); re-tune (ftfft -tune -wisdom) to regenerate it", v, wisdomVersion)
	}
	count := binary.LittleEndian.Uint32(body[6:])
	if int64(count) > int64(t.cap) {
		return fmt.Errorf("tune: wisdom blob holds %d entries, table cap is %d", count, t.cap)
	}
	if want := headerLen + int(count)*entryLen; len(body) != want {
		return fmt.Errorf("tune: wisdom body is %d bytes, want %d for %d entries", len(body), want, count)
	}
	keys := make([]Key, count)
	vals := make([]int, count)
	for e := range keys {
		off := headerLen + e*entryLen
		leaf := binary.LittleEndian.Uint64(body[off:])
		m := binary.LittleEndian.Uint64(body[off+8:])
		// Bound both before converting to int: the ladder's doubling loop
		// never ends once 2·leaf−1 overflows, and every legal length is
		// below 4·MaxLeaf.
		if leaf > MaxLeaf || m >= 4*MaxLeaf || !legal(Key(leaf), int(m)) {
			return fmt.Errorf("tune: wisdom entry %d: length %d is not a legal convolution for leaf %d", e, m, leaf)
		}
		k := Key(leaf)
		if e > 0 && k <= keys[e-1] {
			return fmt.Errorf("tune: wisdom entry %d out of canonical order", e)
		}
		keys[e], vals[e] = k, int(m)
	}
	t.mu.Lock()
	for i, k := range keys {
		t.put(k, vals[i])
	}
	t.epoch++
	t.mu.Unlock()
	return nil
}
