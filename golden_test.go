package ftfft_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ftfft"
	"ftfft/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_spectra.txt from the current outputs")

// goldenLayout is one way of running an n-point transform: a public
// constructor plus the options that pick its executor.
type goldenLayout struct {
	name string
	real bool
	opts []ftfft.Option
}

// goldenLayouts lists the layouts TestGoldenSpectra runs at size n: the
// 1-D plan, a 2-D split (its second pass runs on strided lines), the
// 4-rank in-place six-step plan where 16 | n and the protection has a
// parallel form, and the real-input plan.
func goldenLayouts(n int, prot ftfft.Protection) []goldenLayout {
	rows := map[int]int{4096: 64, 65536: 256, 3072: 48, 8198: 2}[n]
	ls := []goldenLayout{
		{name: "1d"},
		{name: fmt.Sprintf("dims%dx%d", rows, n/rows), opts: []ftfft.Option{ftfft.WithDims(rows, n/rows)}},
	}
	if n%16 == 0 && prot != ftfft.OfflineABFT && prot != ftfft.OfflineABFTNaive {
		// Four workers for four ranks sizes the batch window to one item,
		// so a faulted batch strikes the same item on every host.
		ls = append(ls, goldenLayout{name: "ranks4", opts: []ftfft.Option{ftfft.WithRanks(4), ftfft.WithWorkers(4)}})
	}
	return append(ls, goldenLayout{name: "real", real: true})
}

// goldenFaults is the fixed fault pair of a faulted case: one arithmetic
// fault in a sub-FFT output and one memory fault in the input array.
// Ranked layouts visit different sites: their arithmetic fault strikes a
// sub-FFT of a rank's in-place FFT2 and their memory fault a message in
// transit, both pinned to one rank so concurrent ranks cannot race for the
// occurrence counters. Not every scheme visits both sites; each faulted
// line records how many faults struck.
func goldenFaults(l goldenLayout) *ftfft.Schedule {
	if strings.HasPrefix(l.name, "ranks") {
		return ftfft.NewFaultSchedule(1,
			ftfft.Fault{Site: ftfft.SiteParallelFFT2, Rank: 1, Occurrence: 2, Index: 3, Mode: ftfft.AddConstant, Value: 5},
			ftfft.Fault{Site: ftfft.SiteMessage, Rank: 1, Occurrence: 1, Index: 7, Mode: ftfft.AddConstant, Value: 3})
	}
	return ftfft.NewFaultSchedule(1,
		ftfft.Fault{Site: ftfft.SiteSubFFT1, Rank: ftfft.AnyRank, Occurrence: 2, Index: 3, Mode: ftfft.AddConstant, Value: 5},
		ftfft.Fault{Site: ftfft.SiteInputMemory, Rank: ftfft.AnyRank, Occurrence: 1, Index: 7, Mode: ftfft.AddConstant, Value: 3})
}

// TestGoldenSpectra pins the output bits of every public protection level
// at n ∈ {4096, 65536, 3072, 8198 (Bluestein leaf 4099)} on every layout of
// goldenLayouts: Forward, Inverse and a 3-item ForwardBatch (real plans have
// no batch), clean and under goldenFaults. Each line holds an FNV-64a hash
// of the output bits, the Report and whether an error was returned, and on
// a faulted run how many faults struck; a plan the constructor rejects is
// pinned by its build error. Refactors that must
// not change arithmetic keep every line. Regenerate the file only for a
// deliberate change of output bits, and review the diff:
//
//	go test -run TestGoldenSpectra -update-golden .
func TestGoldenSpectra(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes were recorded on amd64; the compiler may fuse multiply-adds on %s and change output bits", runtime.GOARCH)
	}
	var got []string
	for _, n := range []int{4096, 65536, 3072, 8198} {
		for _, prot := range allProtections {
			for _, l := range goldenLayouts(n, prot) {
				for _, faulted := range []bool{false, true} {
					name := fmt.Sprintf("n=%d %s %v faulted=%v", n, l.name, prot, faulted)
					for _, r := range goldenRun(n, prot, l, faulted) {
						got = append(got, name+" "+r)
					}
				}
			}
		}
	}
	golden := filepath.Join("testdata", "golden_spectra.txt")
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d lines)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%d result lines, golden file has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("output drifted from %s:\n got  %s\n want %s", golden, got[i], wantLines[i])
		}
	}
}

// goldenRun builds one plan and returns one result line per operation, or
// a single build-error line.
func goldenRun(n int, prot ftfft.Protection, l goldenLayout, faulted bool) []string {
	var sched *ftfft.Schedule
	opts := append([]ftfft.Option{ftfft.WithProtection(prot)}, l.opts...)
	if faulted {
		sched = goldenFaults(l)
		opts = append(opts, ftfft.WithInjector(sched))
	}
	// Each operation starts with every fault re-armed, on fresh inputs: a
	// memory fault corrupts (and memory protection repairs) src in place.
	// A faulted line also records how many faults struck.
	arm := func() {
		if sched != nil {
			sched.Reset()
		}
	}
	fired := func(line string) string {
		if sched == nil {
			return line
		}
		return fmt.Sprintf("%s fired=%d", line, sched.FiredCount())
	}
	if l.real {
		tr, err := ftfft.NewReal(n, opts...)
		if err != nil {
			return []string{"build-error"}
		}
		spec := make([]complex128, tr.SpectrumLen())
		arm()
		rep, err := tr.Forward(bg, spec, realInput(11, n))
		fwd := fired(goldenLine("forward", rep, err, spec))
		samples := make([]float64, n)
		arm()
		rep, err = tr.Inverse(bg, samples, workload.Uniform(12, tr.SpectrumLen()))
		h := fnv.New64a()
		var b [8]byte
		for _, v := range samples {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		return []string{fwd, fired(fmt.Sprintf("inverse %016x %+v err=%v", h.Sum64(), rep, err != nil))}
	}
	tr, err := ftfft.New(n, opts...)
	if err != nil {
		return []string{"build-error"}
	}
	dst := make([]complex128, n)
	arm()
	rep, err := tr.Forward(bg, dst, workload.Uniform(11, n))
	fwd := fired(goldenLine("forward", rep, err, dst))
	arm()
	rep, err = tr.Inverse(bg, dst, workload.Uniform(12, n))
	inv := fired(goldenLine("inverse", rep, err, dst))
	dsts := make([][]complex128, 3)
	srcs := make([][]complex128, 3)
	for i := range dsts {
		dsts[i] = make([]complex128, n)
		srcs[i] = workload.Uniform(int64(13+i), n)
	}
	arm()
	if faulted {
		// Concurrent items would race for the schedule's occurrence
		// counters; one processor runs the items of a sequential or N-D
		// batch one at a time, so the same item takes each fault.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	rep, err = tr.ForwardBatch(bg, dsts, srcs)
	return []string{fwd, inv, fired(goldenLine("batch", rep, err, dsts...))}
}

func goldenLine(op string, rep ftfft.Report, err error, outs ...[]complex128) string {
	h := fnv.New64a()
	var b [16]byte
	for _, out := range outs {
		for _, v := range out {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%s %016x %+v err=%v", op, h.Sum64(), rep, err != nil)
}

func realInput(seed int64, n int) []float64 {
	c := workload.Uniform(seed, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = real(c[i])
	}
	return x
}
