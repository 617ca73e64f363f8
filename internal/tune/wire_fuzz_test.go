package tune

import (
	"bytes"
	"testing"
)

// FuzzWisdomDecode is the wisdom decoder's robustness contract, mirroring
// the serve wire's FuzzFrameDecode: arbitrary bytes never panic the
// importer, any blob it accepts is canonical — importing it into a fresh
// table and re-exporting reproduces the input bit for bit — and every
// accepted length is on its leaf's convolution ladder, so no wisdom file can
// force an off-ladder plan.
func FuzzWisdomDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FTWS"))
	f.Add(NewTable(0).Export())
	seeded, _ := sampleTable()
	f.Add(seeded.Export())
	// A deliberately near-miss blob: valid prefix, flipped tail.
	near := seeded.Export()
	near[len(near)-4] ^= 0x40
	f.Add(near)
	// Well-checksummed blobs the validator must refuse.
	f.Add(blob(1, [2]uint64{4099, 9216}))
	f.Add(blob(wisdomVersion, [2]uint64{4099, 8209}))

	f.Fuzz(func(t *testing.T, data []byte) {
		tb := NewTable(0)
		if err := tb.Import(data); err != nil {
			return // rejected is always fine; not panicking is the contract
		}
		again := tb.Export()
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted blob is not canonical: %d bytes in, %d bytes re-encoded", len(data), len(again))
		}
		for k, m := range tb.m {
			if !legal(k, m) {
				t.Fatalf("accepted length %d is off leaf %d's ladder", m, k)
			}
		}
	})
}
