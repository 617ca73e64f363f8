// Package nd is the N-dimensional geometry engine: it plans a protected
// transform over an arbitrary row-major shape dims[0]×dims[1]×…×dims[k-1] as
// a sequence of 1-D axis passes, the direct generalization of the paper's
// row-column decomposition. Every 1-D line transform runs under the
// configured protection scheme, so the online ABFT property — errors are
// detected and repaired before the next pass consumes them — holds for any
// number of axes.
//
// Pass order is innermost axis first (the contiguous lines), then outward.
// The first pass reads the caller's src and writes dst; every later pass
// transforms dst in place, line by line, using the core engine's strided
// execution — no per-line gather/scatter copies. Non-contiguous passes are
// cache-blocked: the lines of one pass that are adjacent in memory are
// grouped into tiles whose working set fits the tile budget (≈ L2), so the
// cache lines fetched while walking one strided line are reused by the
// whole tile instead of evicted between lines.
//
// Passes dispatch as bounded-executor task groups (one task per tile), so
// N-D transforms share the process-wide worker budget with every other
// dispatch mechanism, and outputs are bit-identical regardless of that
// budget: lines are independent, and each line's arithmetic is fixed by the
// core engine.
package nd

import (
	"context"
	"fmt"
	"math"

	"ftfft/internal/core"
	"ftfft/internal/exec"
)

// Config parameterizes a Plan beyond its shape.
type Config struct {
	// Core is the per-line protection configuration; one core transformer
	// of each distinct axis length is built per dispatch slot.
	Core core.Config
	// Workers is the dispatch width of each axis pass; ≤ 1 means serial.
	Workers int
	// Pool is the executor passes dispatch on; nil means exec.Default().
	Pool *exec.Pool
	// TileElems overrides the tile working-set target in complex128
	// elements (0 means DefaultTileElems). Tests use it to force multi-tile
	// schedules on small shapes; benchmarks sweep TileLadder.
	TileElems int
}

// DefaultTileElems is the tile working-set target: 1<<12 complex128 = 64
// KiB, sized to sit comfortably inside L2 (and close to L1) so the cache
// lines of one tile survive all of a protected scheme's passes over its
// strided lines — the checksum sweeps re-read each line several times, and
// oversized tiles measurably lose that reuse. The value was picked by
// BenchmarkTileSize on one host; the ladder around it spreads by only ~5%,
// inside run-to-run noise, so the tile size is fixed rather than tuned.
const DefaultTileElems = 1 << 12

// TileLadder returns the TileElems candidates BenchmarkTileSize sweeps —
// the L1/L2-scaled ladder of 32 KiB … 1 MiB working sets around the
// DefaultTileElems pick — shared so every benchmark of the tile size
// prices the same candidates.
func TileLadder() []int {
	return []int{1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 16}
}

// pass is one planned axis pass. Lines along axis a are indexed by
// (outer, t): the line's first element sits at outer·length·inner + t, and
// its elements are stride (= inner) apart. Lines with consecutive t are
// adjacent in memory; block of them form one cache tile.
type pass struct {
	length int // points per line (the axis size)
	lenIdx int // transformer index (per distinct axis length)
	stride int // element stride within a line; == inner
	outer  int // number of line groups
	inner  int // adjacent lines per group (1 for the contiguous axis)
	block  int // lines per tile, 1..inner
	tiles  int // tiles per group: ceil(inner/block)
}

// Plan executes protected N-D transforms of one fixed shape; a 1-D
// transform is the one-axis shape [n]. Plans are safe for concurrent use:
// each in-flight call draws a context holding the per-slot core
// transformers and scratch from the plan's freelist.
type Plan struct {
	dims    []int
	n       int
	workers int
	pool    *exec.Pool
	cfg     core.Config
	offline bool // Offline restarts re-read src: in-place passes must stage
	passes  []pass
	lens    []int // distinct axis lengths, parallel to slot.tr
	maxLen  int
	free    *exec.Freelist[*callCtx]
}

// callCtx is one in-flight call's workspace: one slot per dispatch width.
type callCtx struct {
	slots []slot
}

// slot is one dispatch slot's private state: a core transformer per
// distinct axis length (transformers are not concurrency-safe) and a
// scratch line for inverse conjugation staging and offline in-place passes.
type slot struct {
	tr      []*core.Transformer
	scratch []complex128
}

// New plans a protected transform over the row-major shape dims.
func New(dims []int, cfg Config) (*Plan, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("nd: empty shape")
	}
	n := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("nd: invalid axis length %d", d)
		}
		if n > math.MaxInt/d {
			return nil, fmt.Errorf("nd: shape product overflows")
		}
		n *= d
	}
	workers := max(cfg.Workers, 1)
	pool := cfg.Pool
	if pool == nil {
		pool = exec.Default()
	}
	tileElems := cfg.TileElems
	if tileElems <= 0 {
		tileElems = DefaultTileElems
	}
	p := &Plan{
		dims:    append([]int(nil), dims...),
		n:       n,
		workers: workers,
		pool:    pool,
		cfg:     cfg.Core,
		offline: cfg.Core.Scheme == core.Offline,
		// A call fans its tiles out over workers of the pool's workers, so
		// the pool runs Workers()/workers calls at once.
		free: exec.NewFreelist[*callCtx](exec.IdleCap(pool.Workers() / workers)),
	}
	// Plan the passes innermost-axis-first. Length-1 axes are identity
	// transforms and are skipped entirely (the first executed pass copies
	// src into dst as a side effect of transforming every line).
	lenIdx := map[int]int{}
	inner := 1
	for a := len(dims) - 1; a >= 0; a-- {
		length := dims[a]
		if length == 1 {
			continue
		}
		li, seen := lenIdx[length]
		if !seen {
			li = len(p.lens)
			lenIdx[length] = li
			p.lens = append(p.lens, length)
			p.maxLen = max(p.maxLen, length)
		}
		p.passes = append(p.passes, pass{
			length: length,
			lenIdx: li,
			stride: inner,
			outer:  n / (length * inner),
			inner:  inner,
		})
		inner *= length
	}
	// Cache blocking only groups independent lines — it never changes any
	// line's arithmetic — so outputs are bit-identical across tile sizes.
	for i := range p.passes {
		ps := &p.passes[i]
		ps.block = min(max(1, tileElems/ps.length), ps.inner)
		ps.tiles = (ps.inner + ps.block - 1) / ps.block
	}
	// Build the first context eagerly: it validates every axis length
	// against the protection scheme and pre-warms the freelist.
	cc, err := p.newCtx()
	if err != nil {
		return nil, err
	}
	p.free.Put(cc)
	return p, nil
}

// Dims returns a copy of the planned shape.
func (p *Plan) Dims() []int { return append([]int(nil), p.dims...) }

// Len returns the total number of points per transform.
func (p *Plan) Len() int { return p.n }

// PooledContexts reports how many idle call contexts the plan currently
// retains and the freelist cap the count never exceeds.
func (p *Plan) PooledContexts() (free, capacity int) { return p.free.Idle() }

func (p *Plan) newCtx() (*callCtx, error) {
	cc := &callCtx{slots: make([]slot, p.workers)}
	for s := range cc.slots {
		cc.slots[s].tr = make([]*core.Transformer, len(p.lens))
		for li, length := range p.lens {
			tr, err := core.New(length, p.cfg)
			if err != nil {
				return nil, fmt.Errorf("nd: axis length %d: %w", length, err)
			}
			cc.slots[s].tr[li] = tr
		}
		cc.slots[s].scratch = make([]complex128, p.maxLen)
	}
	return cc, nil
}

// Forward computes the forward N-D DFT of src into dst (both row-major of
// length Len(), non-overlapping; the caller validates that contract).
func (p *Plan) Forward(ctx context.Context, dst, src []complex128) (core.Report, error) {
	return p.apply(ctx, dst, src, false)
}

// Inverse computes the inverse N-D DFT with 1/Len() normalization, applying
// the conjugation identity per axis line so every pass stays protected.
func (p *Plan) Inverse(ctx context.Context, dst, src []complex128) (core.Report, error) {
	return p.apply(ctx, dst, src, true)
}

func (p *Plan) apply(ctx context.Context, dst, src []complex128, inverse bool) (core.Report, error) {
	dst = dst[:p.n]
	src = src[:p.n]
	cc, err := p.free.Get(p.newCtx)
	if err != nil {
		return core.Report{}, err
	}
	// Core transformers rewrite all working state per call, so a context
	// is reusable even after a failed transform.
	defer p.free.Put(cc)
	var total core.Report
	in := src
	for pi := range p.passes {
		rep, err := p.runPass(ctx, cc, &p.passes[pi], dst, in, inverse)
		total.Add(rep)
		if err != nil {
			return total, err
		}
		in = dst
	}
	if len(p.passes) == 0 {
		// Every axis is degenerate: the N-D DFT is the identity.
		copy(dst, src)
	}
	return total, nil
}

// runPass executes one axis pass: a task group of cache tiles, at most
// p.workers concurrent, each tile walking its adjacent lines serially. The
// serial path (width 1) runs inline with no dispatch and no allocation —
// the steady state of serial N-D transforms.
func (p *Plan) runPass(ctx context.Context, cc *callCtx, ps *pass, dst, src []complex128, inverse bool) (core.Report, error) {
	tasks := ps.outer * ps.tiles
	width := min(p.workers, tasks)
	if width <= 1 {
		var total core.Report
		for task := 0; task < tasks; task++ {
			if err := ctx.Err(); err != nil {
				return total, err
			}
			rep, err := p.runTile(ctx, &cc.slots[0], ps, dst, src, inverse, task)
			total.Add(rep)
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
	reps := make([]core.Report, width)
	err := p.pool.Run(ctx, tasks, width, func(ctx context.Context, slot, task int) error {
		rep, err := p.runTile(ctx, &cc.slots[slot], ps, dst, src, inverse, task)
		reps[slot].Add(rep)
		return err
	})
	var total core.Report
	for i := range reps {
		total.Add(reps[i])
	}
	return total, err
}

// runTile transforms the adjacent lines of one cache tile.
func (p *Plan) runTile(ctx context.Context, sl *slot, ps *pass, dst, src []complex128, inverse bool, task int) (core.Report, error) {
	tr := sl.tr[ps.lenIdx]
	o := task / ps.tiles
	t0 := (task % ps.tiles) * ps.block
	t1 := min(t0+ps.block, ps.inner)
	base := o*ps.length*ps.inner + t0
	var total core.Report
	for t := t0; t < t1; t++ {
		rep, err := p.line(ctx, sl, tr, ps, dst[base:], src[base:], inverse)
		total.Add(rep)
		if err != nil {
			return total, fmt.Errorf("nd: axis line (len %d, offset %d): %w", ps.length, base, err)
		}
		base++
	}
	return total, nil
}

// line runs one protected 1-D transform along an axis line. dl and sl are
// the line's views into the full arrays (first element at index 0, elements
// ps.stride apart); on every pass after the first they alias the same
// memory.
func (p *Plan) line(ctx context.Context, slt *slot, tr *core.Transformer, ps *pass, dl, sl []complex128, inverse bool) (core.Report, error) {
	length, stride := ps.length, ps.stride
	if inverse {
		// Conjugation identity per line: conj-gather into contiguous
		// scratch, transform scratch → strided dst, conj-and-scale in
		// place. Bit-identical to gathering the line and running the 1-D
		// inverse path, and — because the input is staged — alias-safe for
		// every scheme.
		scratch := slt.scratch[:length]
		for r := 0; r < length; r++ {
			v := sl[r*stride]
			scratch[r] = complex(real(v), -imag(v))
		}
		rep, err := tr.TransformStrided(ctx, dl, scratch, stride, 1)
		if err != nil {
			return rep, err
		}
		inv := complex(1/float64(length), 0)
		for r := 0; r < length; r++ {
			v := dl[r*stride]
			dl[r*stride] = complex(real(v), -imag(v)) * inv
		}
		return rep, nil
	}
	if p.offline && &dl[0] == &sl[0] {
		// The offline scheme's restart path re-reads its input after dst
		// was written, so an in-place line is staged through scratch first
		// (one gather, no scatter — stage 2 still writes dst directly).
		scratch := slt.scratch[:length]
		for r := 0; r < length; r++ {
			scratch[r] = sl[r*stride]
		}
		return tr.TransformStrided(ctx, dl, scratch, stride, 1)
	}
	return tr.TransformStrided(ctx, dl, sl, stride, stride)
}
