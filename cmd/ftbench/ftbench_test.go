package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"ftfft/internal/dft"
)

func testEnv(t *testing.T, seed int64, seconds float64) *env {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir) // mesh peer sockets
	return &env{seed: seed, seconds: seconds, dir: dir}
}

// TestSmoke runs every workload, and the traced ladder, on tiny windows:
// every op must succeed and every metric must be printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload")
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			e := testEnv(t, 1, 0.3)
			w, err := def.build(e, false)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			o := w.run(e.duration(), nil)
			o.metrics["setup_s"], o.metrics["heap_peak_mib"] = 1, 1
			res, err := toResult(o, endToEnd, testWriter{t})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("failed ops: %v", o.failures)
			}
		})
	}
	t.Run("trace", func(t *testing.T) {
		e := testEnv(t, 1, 0.2)
		res, spans, err := runTraced(workloads[0], e, testWriter{t})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || len(res.Metrics) != len(perLayer) || len(spans) == 0 {
			t.Fatalf("traced run: correct=%v, %d of %d metrics, %d spans", res.Correct, len(res.Metrics), len(perLayer), len(spans))
		}
	})
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(b []byte) (int, error) {
	w.t.Logf("%s", b)
	return len(b), nil
}

// digest hashes a workload's generated inputs and its first ops.
func digest(t *testing.T, seed int64, name string) uint64 {
	t.Helper()
	def, _ := findWorkload(name)
	e := testEnv(t, seed, 1)
	w, err := def.build(e, false)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	put := func(xs []complex128) { fmt.Fprintf(h, "%x;", hashComplex(xs)) }
	putReal := func(xs []float64) {
		for _, v := range xs {
			fmt.Fprintf(h, "%x,", math.Float64bits(v))
		}
	}
	var js []*job
	var counts []int
	switch w := w.(type) {
	case *local:
		for _, in := range w.inputs {
			for _, x := range in.src {
				put(x)
			}
			for _, x := range in.rsrc {
				putReal(x)
			}
		}
		js, counts = w.jobs()
	case *faults:
		for _, x := range w.src {
			put(x)
		}
		js, counts = w.jobs()
	case *dist:
		for _, x := range w.src {
			put(x)
		}
		js, counts = w.jobs()
	case *serveW:
		for _, ins := range w.inputs {
			for _, in := range ins {
				put(in.src)
				putReal(in.rsrc)
			}
		}
		rng := e.rng("serve.ops")
		for range 1000 {
			fmt.Fprintf(h, "%+v;", w.nextReq(rng, serveRates[0]))
		}
	}
	if js != nil {
		rng := e.rng(name + ".ops")
		cy := newCycler(counts, rng)
		for range 200 {
			i := cy.next()
			fmt.Fprintf(h, "%s %s;", js[i].name, js[i].prep(rng).desc)
		}
	}
	return h.Sum64()
}

// TestSeedDeterminism pins that a workload's inputs and op sequence are a
// function of the seed alone.
func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every workload's inputs")
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			a, b, c := digest(t, 7, def.name), digest(t, 7, def.name), digest(t, 8, def.name)
			if a != b {
				t.Errorf("seed 7 gave two different digests: %x, %x", a, b)
			}
			if a == c {
				t.Errorf("seeds 7 and 8 gave the same digest %x", a)
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name    string
		a, b    []float64
		better  string
		bound   float64
		verdict string
	}{
		{"same", steady, steady, "lower", 0.1, "tie"},
		{"within bound", steady, scale(steady, 1.05), "lower", 0.1, "tie"},
		{"worse, lower is better", steady, scale(steady, 1.2), "lower", 0.1, "worse"},
		{"worse, higher is better", steady, scale(steady, 0.8), "higher", 0.1, "worse"},
		{"better, lower is better", steady, scale(steady, 0.8), "lower", 0.1, "better"},
		{"better, higher is better", steady, scale(steady, 1.2), "higher", 0.1, "better"},
		{"gain inside own spread", steady, scale(steady, 0.99), "lower", 0.1, "tie"},
		{"noisy", noisy, scale(noisy, 0.95), "lower", 0.1, "unresolved"},
		{"noisy but separated", noisy, scale(steady, 0.5), "lower", 0.1, "better"},
		{"noisy and all worse", noisy, scale(steady, 2), "lower", 0.1, "worse"},
	} {
		if got := verdict(tc.a, tc.b, tc.better, tc.bound); got != tc.verdict {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.verdict)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestSelfTimeFromSpans prices a synthetic three-rung ladder from its spans.
func TestSelfTimeFromSpans(t *testing.T) {
	l := newSpanLog()
	t0 := time.Now()
	for _, jitter := range []time.Duration{0, 3, -2, 1, 9} {
		parent := l.add("ladder.round", 0, t0, 0)
		for _, r := range []struct {
			name string
			d    time.Duration
		}{{"raw", 100}, {"plain", 150}, {"online", 190}} {
			d := (r.d + jitter) * time.Microsecond
			l.add(r.name, parent, t0, d)
			t0 = t0.Add(d)
		}
	}
	self := rungSelf(medianUSByName(l.all()), []string{"raw", "plain", "online"})
	want := map[string]float64{"raw": 101, "plain": 50, "online": 40}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-9 {
			t.Errorf("self time of %s = %v µs, want %v", name, self[name], w)
		}
	}
}

// TestQuietest pins the choice of quiet stretches: slowdown is judged per
// job against that job's median, so a stretch of slow jobs that ran at their
// usual speed is as quiet as a stretch of fast ones.
func TestQuietest(t *testing.T) {
	const ms = time.Millisecond
	stretch := func(scale float64) []opRec {
		return []opRec{{job: 0, d: time.Duration(scale * float64(ms))}, {job: 1, d: time.Duration(scale * float64(40*ms))}}
	}
	ws := [][]opRec{stretch(1.5), stretch(1), nil, stretch(1.6), stretch(1.02), stretch(1.4), stretch(1.55), stretch(1.45), {{job: 1, d: 38 * ms}}}
	got := quietest(ws)
	if len(got) != 2 || &got[0][0] != &ws[8][0] || &got[1][0] != &ws[1][0] {
		t.Errorf("quietest kept %v, want stretches 8 and 1", got)
	}
	if got := quietest([][]opRec{nil, stretch(2)}); len(got) != 1 {
		t.Errorf("one non-empty stretch: kept %d, want 1", len(got))
	}
}

// TestReferences validates the raw-kernel reference builders against the
// direct O(N²) DFT.
func TestReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 12, 64, 100} {
		x := genComplex(rng, normal, n)
		if e := relErr(refComplex(x), dft.Transform(x)); e > 1e-12 {
			t.Errorf("complex n=%d: relative error %g", n, e)
		}
		xr := genReal(rng, normal, n)
		if e := relErr(refReal(xr), dft.RealTransform(xr)[:n/2+1]); e > 1e-12 {
			t.Errorf("real n=%d: relative error %g", n, e)
		}
	}
	const rows, cols = 4, 6
	x := genComplex(rng, uniform, rows*cols)
	// The 2-D DFT by definition: Σ_r Σ_c x[r][c]·ω_rows^{r·u}·ω_cols^{c·v}.
	want := make([]complex128, rows*cols)
	for u := range rows {
		for v := range cols {
			for r := range rows {
				for c := range cols {
					want[u*cols+v] += x[r*cols+c] * dft.Omega(rows, r*u) * dft.Omega(cols, c*v)
				}
			}
		}
	}
	if e := relErr(ref2D(x, rows, cols), want); e > 1e-12 {
		t.Errorf("2-D %d×%d: relative error %g", rows, cols, e)
	}
	// The scaled norm must stay finite at the ends of the exponent range.
	for _, f := range []family{denormal, huge, wideRange} {
		x := genComplex(rng, f, 64)
		if e := relErr(refComplex(x), dft.Transform(x)); !(e < 1e-9) {
			t.Errorf("%s: relative error %g", f, e)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the catalog the
// program prints from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for _, m := range b.EndToEnd {
		maxBound = max(maxBound, m.Bound)
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end %d: %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v, program %+v", i, m, d)
		}
	}
}
