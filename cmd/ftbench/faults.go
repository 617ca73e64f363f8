package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"ftfft"
)

// benchInjector is the faults workload's Injector: it delegates every site
// visit to the Schedule armed for the current op (none between ops).
type benchInjector struct {
	cur atomic.Pointer[ftfft.Schedule]
}

func (b *benchInjector) Visit(site ftfft.Site, rank int, data []complex128, n, stride int) bool {
	s := b.cur.Load()
	return s != nil && s.Visit(site, rank, data, n, stride)
}

const (
	faultsN     = 1 << 16
	faultsRanks = 4
	// faultsPool is the number of generated inputs (ordinary families only:
	// a fault's magnitude is sized against O(1) data).
	faultsPool = 8
)

// seqMixes are the Table 1 fault mixes of the sequential plan: m memory
// faults and c computational faults per op.
var seqMixes = []struct {
	name string
	m, c int
}{{"1m", 1, 0}, {"1c", 0, 1}, {"1m1c", 1, 1}, {"1m2c", 1, 2}}

// faultMagnitude is a seeded fault value: 2 to 10 in size, either sign.
func faultMagnitude(rng *rand.Rand) float64 {
	v := 2 + 8*rng.Float64()
	if rng.Intn(2) == 0 {
		return -v
	}
	return v
}

// seqFaults draws one op's faults for the sequential 2^16 plan (m = k = 256
// sub-FFTs per layer, 256 twiddle visits). Every fault is one the scheme is
// specified to correct: at most one memory fault, computational faults at
// distinct sites, each on a visit that happens.
func seqFaults(rng *rand.Rand, m, c int) []ftfft.Fault {
	var fs []ftfft.Fault
	memSites := []ftfft.Site{ftfft.SiteInputMemory, ftfft.SiteIntermediateMemory, ftfft.SiteOutputMemory}
	for range m {
		mode := ftfft.SetConstant
		if rng.Intn(2) == 0 {
			mode = ftfft.AddConstant
		}
		fs = append(fs, ftfft.Fault{Site: memSites[rng.Intn(len(memSites))], Rank: ftfft.AnyRank, Index: -1, Mode: mode, Value: faultMagnitude(rng)})
	}
	compSites := []ftfft.Site{ftfft.SiteSubFFT1, ftfft.SiteSubFFT2, ftfft.SiteTwiddle}
	rng.Shuffle(len(compSites), func(a, b int) { compSites[a], compSites[b] = compSites[b], compSites[a] })
	for _, s := range compSites[:c] {
		fs = append(fs, ftfft.Fault{Site: s, Rank: ftfft.AnyRank, Occurrence: 1 + rng.Intn(256), Index: -1, Mode: ftfft.AddConstant, Value: faultMagnitude(rng)})
	}
	return fs
}

// parFaults draws the Table 2 mix for the 4-rank plan: two message faults on
// distinct ranks (two in one message are beyond a block checksum) and one
// compute fault in each of the parallel FFT stages.
func parFaults(rng *rand.Rand) []ftfft.Fault {
	r0 := rng.Intn(faultsRanks)
	r1 := (r0 + 1 + rng.Intn(faultsRanks-1)) % faultsRanks
	var fs []ftfft.Fault
	for _, r := range []int{r0, r1} {
		fs = append(fs, ftfft.Fault{Site: ftfft.SiteMessage, Rank: r, Occurrence: 1 + rng.Intn(3), Index: -1, Mode: ftfft.AddConstant, Value: faultMagnitude(rng)})
	}
	for _, s := range []ftfft.Site{ftfft.SiteParallelFFT1, ftfft.SiteParallelFFT2} {
		fs = append(fs, ftfft.Fault{Site: s, Rank: rng.Intn(faultsRanks), Occurrence: 1 + rng.Intn(4), Index: -1, Mode: ftfft.AddConstant, Value: faultMagnitude(rng)})
	}
	return fs
}

type faults struct {
	e        *env
	src, ref [][]complex128
	work     []complex128 // the staged input: memory faults corrupt (and repair) it in place
	dst      []complex128
	seq, par ftfft.Transform
	inj      [2]*benchInjector
}

func newFaults(e *env, probe bool) (workload, error) {
	f := &faults{e: e, work: make([]complex128, faultsN), dst: make([]complex128, faultsN), inj: [2]*benchInjector{{}, {}}}
	rng := e.rng("faults.inputs")
	size := faultsPool
	if probe {
		size = 1
	}
	for i := range size {
		x := genComplex(rng, ordinary[i%len(ordinary)], faultsN)
		f.src = append(f.src, x)
		if !probe {
			f.ref = append(f.ref, refComplex(x))
		}
	}
	return f, nil
}

func (f *faults) setup() error {
	var err error
	if f.seq, err = ftfft.New(faultsN, ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithInjector(f.inj[0])); err != nil {
		return err
	}
	if f.par, err = ftfft.New(faultsN, ftfft.WithRanks(faultsRanks), ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithInjector(f.inj[1])); err != nil {
		return err
	}
	ctx := context.Background()
	for _, tr := range []ftfft.Transform{f.seq, f.par} {
		copy(f.work, f.src[0])
		if _, err := tr.Forward(ctx, f.dst, f.work); err != nil {
			return fmt.Errorf("first call: %w", err)
		}
	}
	return nil
}

// faultJob is one op kind: a plan, its injector, and a fault-mix draw.
func (f *faults) faultJob(name string, tr ftfft.Transform, inj *benchInjector, draw func(*rand.Rand) []ftfft.Fault) *job {
	ctx := context.Background()
	return &job{name: name, flops: flopsComplex(faultsN), prep: func(rng *rand.Rand) op {
		k := rng.Intn(len(f.src))
		copy(f.work, f.src[k])
		fs := draw(rng)
		seed := rng.Int63()
		sched := ftfft.NewFaultSchedule(seed, fs...)
		inj.cur.Store(sched)
		return op{
			desc: fmt.Sprintf("input %d, faults %+v (seed %d)", k, fs, seed),
			call: func() (ftfft.Report, error) { return tr.Forward(ctx, f.dst, f.work) },
			check: func(rep ftfft.Report) error {
				inj.cur.Store(nil)
				if !sched.AllFired() {
					return fmt.Errorf("only %d of %d scheduled faults struck", sched.FiredCount(), len(fs))
				}
				if err := checkClose(f.dst, f.ref[k]); err != nil {
					return fmt.Errorf("report %+v: %w", rep, err)
				}
				return nil
			},
		}
	}}
}

// jobs is the faults mix: equal work on the two plans, the sequential
// plan's ops rotating through the four Table 1 mixes.
func (f *faults) jobs() ([]*job, []int) {
	next := 0
	seq := func(rng *rand.Rand) []ftfft.Fault {
		mx := seqMixes[next%len(seqMixes)]
		next++
		return seqFaults(rng, mx.m, mx.c)
	}
	return []*job{
		f.faultJob("seq", f.seq, f.inj[0], seq),
		f.faultJob("par.2m2c", f.par, f.inj[1], parFaults),
	}, []int{1, 1}
}

func (f *faults) run(d time.Duration, spans *spanLog) *outcome {
	js, counts := f.jobs()
	recs, o := runCycles(js, counts, d, f.e.rng("faults.ops"), spans)
	closedMetrics(recs, js, o)
	return o
}

func (f *faults) close() {}
