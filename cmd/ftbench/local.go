package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ftfft"
)

// localPlan is one plan of the local mix.
type localPlan struct {
	name string
	n    int   // points per transform
	real bool  // NewReal: n real samples in, n/2+1 bins out
	dims []int // WithDims geometry; nil for 1-D
	prot ftfft.Protection
}

// The local mix: OnlineABFTMemory at a size that fits L2 (2^12), one near L2
// (2^16) and one whose src+dst+scratch exceeds L3 (2^20); the unprotected
// baseline at 2^16; the real-input path; and a 2-D plan dispatched over
// nproc workers, which brings nd and exec in.
var localPlans = []localPlan{
	{name: "c4096", n: 1 << 12, prot: ftfft.OnlineABFTMemory},
	{name: "c65536", n: 1 << 16, prot: ftfft.OnlineABFTMemory},
	{name: "c1048576", n: 1 << 20, prot: ftfft.OnlineABFTMemory},
	{name: "c65536.none", n: 1 << 16, prot: ftfft.None},
	{name: "r65536", n: 1 << 16, real: true, prot: ftfft.OnlineABFTMemory},
	{name: "c512x512", n: 512 * 512, dims: []int{512, 512}, prot: ftfft.OnlineABFTMemory},
}

func (p localPlan) flops() float64 {
	if p.real {
		return flopsComplex(p.n) / 2
	}
	return flopsComplex(p.n)
}

// poolSize bounds the generated inputs per plan: sixteen for small plans,
// fewer for large ones, so inputs and references stay near 200 MiB in all.
func (p localPlan) poolSize() int {
	switch {
	case p.n <= 1<<12:
		return 16
	case p.n <= 1<<16:
		return 8
	}
	return 4
}

// poolFamilies returns the families of one plan's input pool: a quarter of
// it valid-adversarial (a seeded pick when the quarter is one input), the
// rest ordinary.
func poolFamilies(rng *rand.Rand, size int) []family {
	fs := make([]family, size)
	adv := size / 4
	off := rng.Intn(len(adversarial))
	for i := range fs {
		if i < size-adv {
			fs[i] = ordinary[i%len(ordinary)]
		} else {
			fs[i] = adversarial[(i+off)%len(adversarial)]
		}
	}
	return fs
}

// planInputs is one plan's seeded input pool and references. Complex plans
// use src/ref; the real plan uses rsrc/ref.
type planInputs struct {
	fams []family
	src  [][]complex128
	rsrc [][]float64
	ref  [][]complex128
}

func genPlanInputs(rng *rand.Rand, p localPlan, size int, refs bool) planInputs {
	in := planInputs{fams: poolFamilies(rng, size)}
	for _, f := range in.fams {
		if p.real {
			x := genReal(rng, f, p.n)
			in.rsrc = append(in.rsrc, x)
			if refs {
				in.ref = append(in.ref, refReal(x))
			}
			continue
		}
		x := genComplex(rng, f, p.n)
		in.src = append(in.src, x)
		if refs {
			if p.dims != nil {
				in.ref = append(in.ref, ref2D(x, p.dims[0], p.dims[1]))
			} else {
				in.ref = append(in.ref, refComplex(x))
			}
		}
	}
	return in
}

type local struct {
	e      *env
	inputs []planInputs
	trs    []ftfft.Transform     // complex plans (nil for the real plan)
	rtrs   []ftfft.RealTransform // the real plan (nil otherwise)
	dst    [][]complex128
}

func newLocal(e *env, probe bool) (workload, error) {
	l := &local{e: e}
	rng := e.rng("local.inputs")
	for _, p := range localPlans {
		size := p.poolSize()
		if probe {
			size = 1
		}
		l.inputs = append(l.inputs, genPlanInputs(rng, p, size, !probe))
	}
	return l, nil
}

func (l *local) setup() error {
	ctx := context.Background()
	for i, p := range localPlans {
		var tr ftfft.Transform
		var rtr ftfft.RealTransform
		var err error
		var dst []complex128
		switch {
		case p.real:
			rtr, err = ftfft.NewReal(p.n, ftfft.WithProtection(p.prot))
			dst = make([]complex128, p.n/2+1)
		case p.dims != nil:
			tr, err = ftfft.New(p.n, ftfft.WithProtection(p.prot), ftfft.WithDims(p.dims...), ftfft.WithRanks(runtime.NumCPU()))
			dst = make([]complex128, p.n)
		default:
			tr, err = ftfft.New(p.n, ftfft.WithProtection(p.prot))
			dst = make([]complex128, p.n)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		l.trs, l.rtrs, l.dst = append(l.trs, tr), append(l.rtrs, rtr), append(l.dst, dst)
		if _, err := l.call(ctx, i, 0); err != nil {
			return fmt.Errorf("%s: first call: %w", p.name, err)
		}
	}
	return nil
}

// call runs plan i on pool input k into the plan's dst.
func (l *local) call(ctx context.Context, i, k int) (ftfft.Report, error) {
	if l.rtrs[i] != nil {
		return l.rtrs[i].Forward(ctx, l.dst[i], l.inputs[i].rsrc[k])
	}
	return l.trs[i].Forward(ctx, l.dst[i], l.inputs[i].src[k])
}

// jobs returns the local mix as closed-loop jobs, and each job's count per
// cycle: equal work per plan, four 2^20 transforms' worth per cycle.
func (l *local) jobs() ([]*job, []int) {
	ctx := context.Background()
	var js []*job
	var counts []int
	top := flopsComplex(1 << 20)
	for i, p := range localPlans {
		js = append(js, &job{name: p.name, flops: p.flops(), prep: func(rng *rand.Rand) op {
			in := &l.inputs[i]
			k := rng.Intn(len(in.ref))
			return op{
				desc:  fmt.Sprintf("input %d (%s)", k, in.fams[k]),
				call:  func() (ftfft.Report, error) { return l.call(ctx, i, k) },
				check: func(ftfft.Report) error { return checkClose(l.dst[i], in.ref[k]) },
			}
		}})
		counts = append(counts, int(4*top/p.flops()+0.5))
	}
	return js, counts
}

func (l *local) run(d time.Duration, spans *spanLog) *outcome {
	js, counts := l.jobs()
	recs, o := runCycles(js, counts, d, l.e.rng("local.ops"), spans)
	closedMetrics(recs, js, o)
	return o
}

func (l *local) close() {}
