package main

import (
	"math"
	"math/rand"
	"sync"

	"ftfft/internal/fft"
)

// family is one kind of generated input. The program under test only ever
// receives vectors these generators produce from the run's seed.
type family int

const (
	uniform   family = iota // components U(-1,1), the paper's evaluation input
	normal                  // components N(0,1)
	tones                   // three complex tones plus 1% Gaussian noise
	wideRange               // components U(-1,1)·10^U(-150,150)
	denormal                // U(-1,1)·1e-310: every element denormal
	huge                    // U(-1,1)·1e300: near overflow, yet every DFT bin is finite
	spike                   // uniform plus one 1e8 element
)

var familyNames = [...]string{"uniform", "normal", "tones", "range", "denormal", "huge", "spike"}

func (f family) String() string { return familyNames[f] }

// ordinary are the families of everyday inputs; adversarial are valid inputs
// at the edges of the floating-point range that the library accepts today.
// spike is valid too, but OnlineABFTMemory rejects it today (its thresholds
// come from a sampled RMS that misses the spike), so it is priced only by the
// traced run's core.false_reject_frac, never in a workload: workloads are
// chosen so that no operation fails.
var (
	ordinary    = []family{uniform, normal, tones}
	adversarial = []family{wideRange, denormal, huge}
)

func genFloat(rng *rand.Rand, f family) float64 {
	u := 2*rng.Float64() - 1
	switch f {
	case normal:
		return rng.NormFloat64()
	case wideRange:
		return u * math.Pow(10, 300*rng.Float64()-150)
	case denormal:
		return u * 1e-310
	case huge:
		return u * 1e300
	}
	return u
}

// genComplex returns n samples of family f.
func genComplex(rng *rand.Rand, f family, n int) []complex128 {
	x := make([]complex128, n)
	if f == tones {
		type tone struct{ bin, amp, phase float64 }
		var ts [3]tone
		for i := range ts {
			ts[i] = tone{float64(rng.Intn(n)), 0.5 + rng.Float64(), 2 * math.Pi * rng.Float64()}
		}
		for t := range x {
			var z complex128
			for _, tn := range ts {
				s, c := math.Sincos(2*math.Pi*tn.bin*float64(t)/float64(n) + tn.phase)
				z += complex(tn.amp*c, tn.amp*s)
			}
			x[t] = z + complex(0.01*rng.NormFloat64(), 0.01*rng.NormFloat64())
		}
		return x
	}
	g := f
	if f == spike {
		g = uniform
	}
	for i := range x {
		x[i] = complex(genFloat(rng, g), genFloat(rng, g))
	}
	if f == spike {
		x[rng.Intn(n)] = 1e8
	}
	return x
}

// genReal returns n real samples of family f (the real parts of genComplex's
// distribution; tones become real cosines).
func genReal(rng *rand.Rand, f family, n int) []float64 {
	z := genComplex(rng, f, n)
	x := make([]float64, n)
	for i, v := range z {
		x[i] = real(v)
	}
	return x
}

// Reference outputs come from the raw fft kernel, outside any protection
// layer; the tests validate them against the direct DFT in internal/dft.
var (
	refPlansMu sync.Mutex
	refPlans   = map[int]*fft.Plan{}
)

func refPlan(n int) *fft.Plan {
	refPlansMu.Lock()
	defer refPlansMu.Unlock()
	p, ok := refPlans[n]
	if !ok {
		p = fft.MustPlan(n, fft.Forward)
		refPlans[n] = p
	}
	return p
}

// refComplex is the forward DFT of x.
func refComplex(x []complex128) []complex128 {
	y := make([]complex128, len(x))
	refPlan(len(x)).Execute(y, x)
	return y
}

// refReal is the stored half spectrum (bins 0..n/2) of the real vector x.
func refReal(x []float64) []complex128 {
	z := make([]complex128, len(x))
	for i, v := range x {
		z[i] = complex(v, 0)
	}
	return refComplex(z)[:len(x)/2+1]
}

// ref2D is the row-major rows×cols 2-D DFT of x by nested passes: every row,
// then every column.
func ref2D(x []complex128, rows, cols int) []complex128 {
	y := make([]complex128, len(x))
	pr, pc := refPlan(cols), refPlan(rows)
	for r := 0; r < rows; r++ {
		pr.Execute(y[r*cols:(r+1)*cols], x[r*cols:(r+1)*cols])
	}
	col, out := make([]complex128, rows), make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = y[r*cols+c]
		}
		pc.Execute(out, col)
		for r := 0; r < rows; r++ {
			y[r*cols+c] = out[r]
		}
	}
	return y
}

// tolerance bounds the relative L2 error of every checked output against its
// reference. Clean transforms land near 1e-15; repaired faults within a few
// orders of magnitude of that; any unrepaired fault lands far above.
const tolerance = 1e-9

// flopsComplex is the conventional 5·N·log₂N operation count of an N-point
// complex FFT; a real transform counts half of it.
func flopsComplex(n int) float64 { return 5 * float64(n) * math.Log2(float64(n)) }
