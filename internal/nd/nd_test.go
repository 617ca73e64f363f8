package nd

import (
	"context"
	"math/cmplx"
	"math/rand"
	"testing"

	"ftfft/internal/core"
	"ftfft/internal/dft"
	"ftfft/internal/exec"
)

var bg = context.Background()

func randomVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return x
}

// axisReference applies the O(len²) reference DFT along every axis,
// innermost first — the schedule the engine must reproduce.
func axisReference(x []complex128, dims []int, inverse bool) []complex128 {
	out := append([]complex128(nil), x...)
	inner := 1
	for a := len(dims) - 1; a >= 0; a-- {
		length := dims[a]
		if length == 1 {
			continue
		}
		line := make([]complex128, length)
		outer := len(x) / (length * inner)
		for o := 0; o < outer; o++ {
			for t := 0; t < inner; t++ {
				base := o*length*inner + t
				for r := 0; r < length; r++ {
					line[r] = out[base+r*inner]
				}
				var X []complex128
				if inverse {
					X = dft.Inverse(line)
				} else {
					X = dft.Transform(line)
				}
				for r := 0; r < length; r++ {
					out[base+r*inner] = X[r]
				}
			}
		}
		inner *= length
	}
	return out
}

func maxAbsDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func maxAbs(a []complex128) float64 {
	var m float64
	for _, v := range a {
		if d := cmplx.Abs(v); d > m {
			m = d
		}
	}
	return m
}

// onlineCompatible reports whether every non-degenerate axis admits the
// online scheme's two-layer decomposition.
func onlineCompatible(dims []int) bool {
	for _, d := range dims {
		if d == 1 {
			continue
		}
		if _, _, err := core.Split(d); err != nil {
			return false
		}
	}
	return true
}

var testShapes = [][]int{
	{64},
	{8, 16},
	{16, 8},
	{4, 8, 8},
	{8, 1, 8},
	{1, 64},
	{64, 1},
	{2, 4, 4, 4},
	{4, 4, 4},
}

func TestForwardMatchesAxisReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dims := range testShapes {
		for _, cfg := range []core.Config{
			{Scheme: core.Plain},
			{Scheme: core.Offline, Variant: core.Optimized, MemoryFT: true},
			{Scheme: core.Online, Variant: core.Optimized, MemoryFT: true},
		} {
			if cfg.Scheme == core.Online && !onlineCompatible(dims) {
				continue
			}
			p, err := New(dims, Config{Core: cfg})
			if err != nil {
				t.Fatalf("%v %v: %v", dims, cfg.Scheme, err)
			}
			x := randomVec(rng, p.Len())
			want := axisReference(x, dims, false)
			dst := make([]complex128, p.Len())
			rep, err := p.Forward(bg, dst, append([]complex128(nil), x...))
			if err != nil || !rep.Clean() {
				t.Fatalf("%v %v: err=%v rep=%+v", dims, cfg.Scheme, err, rep)
			}
			tol := 1e-9 * float64(p.Len()) * (1 + maxAbs(want))
			if d := maxAbsDiff(dst, want); d > tol {
				t.Errorf("%v %v: forward diff %g > %g", dims, cfg.Scheme, d, tol)
			}
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dims := range testShapes {
		for _, cfg := range []core.Config{
			{Scheme: core.Plain},
			{Scheme: core.Offline, Variant: core.Naive},
			{Scheme: core.Online, Variant: core.Optimized, MemoryFT: true},
		} {
			if cfg.Scheme == core.Online && !onlineCompatible(dims) {
				continue
			}
			p, err := New(dims, Config{Core: cfg})
			if err != nil {
				t.Fatal(err)
			}
			x := randomVec(rng, p.Len())
			X := make([]complex128, p.Len())
			back := make([]complex128, p.Len())
			if _, err := p.Forward(bg, X, append([]complex128(nil), x...)); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Inverse(bg, back, X); err != nil {
				t.Fatal(err)
			}
			tol := 1e-9 * float64(p.Len()) * (1 + maxAbs(x))
			if d := maxAbsDiff(back, x); d > tol {
				t.Errorf("%v %v: round trip diff %g > %g", dims, cfg.Scheme, d, tol)
			}
		}
	}
}

// TestTilingAndWidthBitIdentity: the tile schedule and the dispatch width
// are pure scheduling choices — outputs must be bit-identical across them.
func TestTilingAndWidthBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dims := []int{16, 8, 12}
	cfg := core.Config{Scheme: core.Online, Variant: core.Optimized, MemoryFT: true}
	ref, err := New(dims, Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	x := randomVec(rng, ref.Len())
	want := make([]complex128, ref.Len())
	if _, err := ref.Forward(bg, want, append([]complex128(nil), x...)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []Config{
		{Core: cfg, Workers: 4},
		{Core: cfg, Workers: 3, TileElems: 16}, // force many tiny tiles
		{Core: cfg, TileElems: 1},              // one line per tile, serial
		{Core: cfg, Workers: 16, TileElems: 1 << 20},
	} {
		p, err := New(dims, c)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, p.Len())
		if _, err := p.Forward(bg, got, append([]complex128(nil), x...)); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d tile=%d: element %d differs: scheduling changed the arithmetic",
					c.Workers, c.TileElems, i)
			}
		}
	}
}

func TestDegenerateAllOnes(t *testing.T) {
	p, err := New([]int{1, 1, 1}, Config{Core: core.Config{Scheme: core.Online, Variant: core.Optimized}})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, 1)
	if _, err := p.Forward(bg, dst, []complex128{42i}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 42i {
		t.Fatalf("identity transform produced %v", dst[0])
	}
}

func TestNewValidation(t *testing.T) {
	cfg := Config{Core: core.Config{Scheme: core.Plain}}
	if _, err := New(nil, cfg); err == nil {
		t.Error("empty shape accepted")
	}
	if _, err := New([]int{4, 0}, cfg); err == nil {
		t.Error("zero axis accepted")
	}
	if _, err := New([]int{4, -4}, cfg); err == nil {
		t.Error("negative axis accepted")
	}
	// Online protection needs composite axis lengths ≥ 4.
	if _, err := New([]int{2, 32}, Config{Core: core.Config{Scheme: core.Online}}); err == nil {
		t.Error("online scheme accepted a 2-point axis")
	}
}

func TestPooledContextCap(t *testing.T) {
	p, err := New([]int{8, 8}, Config{Core: core.Config{Scheme: core.Plain}})
	if err != nil {
		t.Fatal(err)
	}
	// A burst of concurrent calls must not pin more than the cap.
	const burst = 2 * exec.MaxIdle
	done := make(chan error, burst)
	gate := make(chan struct{})
	for i := 0; i < burst; i++ {
		go func(seed int64) {
			<-gate
			rng := rand.New(rand.NewSource(seed))
			dst := make([]complex128, p.Len())
			_, err := p.Forward(bg, dst, randomVec(rng, p.Len()))
			done <- err
		}(int64(i))
	}
	close(gate)
	for i := 0; i < burst; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	free, capacity := p.PooledContexts()
	if want := exec.IdleCap(exec.Default().Workers()); capacity != want || free > capacity {
		t.Fatalf("freelist retains %d contexts, cap is %d (want the shared rule's %d)", free, capacity, want)
	}
}
