package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// median returns the median of xs (the mean of the middle pair for an even
// count), as Python's statistics.median does; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	k := len(s) / 2
	if len(s)%2 == 1 {
		return s[k]
	}
	return (s[k-1] + s[k]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so the
// spreads this tool reports are the ones a Python digest of the same runs sees.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of ds in
// milliseconds; 0 for no samples.
func percentileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(ds))
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(k, 0)]) / 1e6
}

// medianDur returns the median of ds in microseconds.
func medianUS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	return median(xs)
}

// relErr returns ‖got − want‖₂ / ‖want‖₂. Both vectors are first scaled by
// the same power of two, so inputs near overflow (1e300) or in the denormal
// range stay finite and exact through the squares.
func relErr(got, want []complex128) float64 {
	var top float64
	for _, w := range want {
		top = max(top, math.Abs(real(w)), math.Abs(imag(w)))
	}
	if top == 0 {
		top = 1
	}
	_, e := math.Frexp(top)
	// Two factors: 2^-e alone overflows for e below -1023.
	f1, f2 := math.Ldexp(1, -e/2), math.Ldexp(1, -e-(-e/2))
	var num, den float64
	for i, w := range want {
		d := got[i] - w
		dr, di := real(d)*f1*f2, imag(d)*f1*f2
		wr, wi := real(w)*f1*f2, imag(w)*f1*f2
		num += dr*dr + di*di
		den += wr*wr + wi*wi
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// hashComplex is an FNV-1a digest of the exact bits of xs, for bit-identity
// checks.
func hashComplex(xs []complex128) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, z := range xs {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(z)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(z)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// heapSampler tracks the live heap (runtime/metrics /gc/heap/live:bytes, the
// heap the last GC found reachable) while a workload runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const liveHeap = "/gc/heap/live:bytes"

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			h.peak = max(h.peak, readLiveHeap())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak, including one final sample
// after a forced collection (a workload that allocates nothing in steady
// state may otherwise never trigger a GC that counts its plans).
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	runtime.GC()
	return max(h.peak, readLiveHeap())
}
