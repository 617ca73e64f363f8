// Command ftbench is the repository's benchmark: it drives the ftfft library
// through four workloads (local, faults, dist, serve), checks every output,
// and prints the end-to-end metrics, or, with --trace 1, the per-layer
// metrics of a layer ladder priced against the raw fft kernel. See README.md.
//
//	ftbench --workload local --seed 1 --seconds 30 --trace 0
//	ftbench --seed 1                       # all four workloads, one child process each
//	ftbench compare A.jsonl [B.jsonl]      # digest recorded runs, or judge B against A
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// env is what every workload is built from: the seed, the run length, and a
// private scratch directory for socket and ring files.
type env struct {
	seed    int64
	seconds float64
	dir     string
}

// rng returns the generator of one named stream of the seed; streams are
// independent, so adding one never shifts another's values.
func (e *env) rng(stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
}

func (e *env) duration() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// workload is one traffic mix. The constructor generates every input and
// reference (untimed); setup builds the system under test and makes the first,
// cold call on each part of it (timed as setup_s); run drives it for d,
// recording each op as a span when spans is non-nil.
type workload interface {
	setup() error
	run(d time.Duration, spans *spanLog) *outcome
	close()
}

type workloadDef struct {
	name, why string
	// build generates the workload's inputs. With probe set it generates only
	// what setup needs, for the set-up timing children.
	build func(e *env, probe bool) (workload, error)
}

var workloads = []workloadDef{
	{"local", "the sequential library hot loop over six plans whose working sets straddle L2 and L3, including valid edge-of-range inputs", newLocal},
	{"faults", "injected soft errors on every op, so the recovery paths that clean runs never execute are timed", newFaults},
	{"dist", "2^16 over 4 ranks on the chan, unix-mesh and shm worlds, single transforms and pipelined batches", newDist},
	{"serve", "an in-process server at three open-loop Poisson rates and at closed-loop capacity: a hot plan set, a cold tail, and wire faults", newServe},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// outcome is what one measured run produced.
type outcome struct {
	attempted, failed int
	failures          []string
	notes             []string // per-job and per-step detail for the log
	metrics           map[string]float64
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed op and keeps the first few reasons for the log.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "local, faults, dist, serve, or all (each in its own child process)")
	seed := fs.Int64("seed", 1, "seed every generated input and op sequence derives from")
	seconds := fs.Float64("seconds", 30, "measurement length of one workload run")
	trace := fs.Int("trace", 0, "1 runs the traced layer ladder and prints the per-layer metrics")
	record := fs.String("record", "", "append this run's result, with its workload and seed, as one JSON line to `file` (the input of compare)")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "ftbench"), "scratch directory for sockets, ring files and spans")
	setupProbe := fs.Bool("setup-probe", false, "internal: time one construction of --workload and print it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "ftbench: usage: ftbench [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--record file]")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "ftbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "ftbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "ftbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// Mesh workers open their peer sockets in os.TempDir; keep those inside
	// the run directory too (and its path short: unix socket paths are
	// limited to 107 bytes).
	os.Setenv("TMPDIR", dir)
	e := &env{seed: *seed, seconds: *seconds, dir: dir}

	if *setupProbe {
		s, err := timeSetup(def, e)
		if err != nil {
			fmt.Fprintln(stderr, "ftbench: setup:", err)
			return 1
		}
		fmt.Fprintf(stdout, "setup_s %v\n", s)
		return 0
	}

	var res result
	var spans []span
	if *trace == 1 {
		res, spans, err = runTraced(def, e, stdout)
	} else {
		res, err = runMeasured(def, e, args, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ftbench: %s: %v\n", def.name, err)
		return 1
	}
	if len(spans) > 0 {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.json", def.name, *seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintln(stderr, "ftbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	if *record != "" {
		if err := appendRecord(*record, def.name, *seed, *trace == 1, res); err != nil {
			fmt.Fprintln(stderr, "ftbench: recording:", err)
			return 1
		}
	}
	printResult(stdout, res)
	return 0
}

// timeSetup builds a workload in this (fresh) process and times its setup.
func timeSetup(def workloadDef, e *env) (float64, error) {
	w, err := def.build(e, true)
	if err != nil {
		return 0, err
	}
	defer w.close()
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// setupProbes is how many fresh-process constructions setup_s takes the
// median of.
const setupProbes = 9

// probeSetup times setupProbes constructions, each in a child process of its
// own so that plan and table caches start cold.
func probeSetup(args []string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for range setupProbes {
		out, err := runChild(self, append(append([]string(nil), args...), "--setup-probe"), io.Discard)
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		_, last := splitLast(out)
		f := strings.Fields(last)
		if len(f) != 2 || f[0] != "setup_s" {
			return 0, fmt.Errorf("setup probe printed %q", last)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, err
		}
		xs = append(xs, v)
	}
	return median(xs), nil
}

// runChild runs one child process to completion (bounded by childTimeout)
// and returns its standard output; its standard error goes to stderr.
func runChild(prog string, args []string, stderr io.Writer) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, prog, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	err := cmd.Run()
	return out.Bytes(), err
}

const childTimeout = 170 * time.Second

// splitLast splits a child's output into its log and its last line.
func splitLast(b []byte) (log, last string) {
	s := strings.TrimSpace(string(b))
	i := strings.LastIndexByte(s, '\n')
	return s[:i+1], s[i+1:]
}

// runMeasured is one untraced run: set-up probes, then the measured loop.
func runMeasured(def workloadDef, e *env, args []string, stdout io.Writer) (result, error) {
	setupS, err := probeSetup(args)
	if err != nil {
		return result{}, err
	}
	w, err := def.build(e, false)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	runtime.GC()
	base := readLiveHeap()
	heap := startHeapSampler()
	if err := w.setup(); err != nil {
		heap.finish()
		return result{}, err
	}
	o := w.run(e.duration(), nil)
	peak := heap.finish()
	o.metrics["setup_s"] = setupS
	o.metrics["heap_peak_mib"] = float64(peak-min(base, peak)) / (1 << 20)
	for _, n := range o.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range o.failures {
		fmt.Fprintf(stdout, "FAILED: %s\n", f)
	}
	return toResult(o, endToEnd, stdout)
}

// toResult keeps exactly the catalog's metrics, in catalog order on the log.
func toResult(o *outcome, defs []metricDef, log io.Writer) (result, error) {
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		if d.Moves == "" {
			fmt.Fprintf(log, "%-34s %14.6g %s\n", d.Name, v, d.Unit)
		} else {
			fmt.Fprintf(log, "%-34s %14.6g %-7s %s layer; should move %s\n", d.Name, v, d.Unit, d.Layer, d.Moves)
		}
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	fmt.Fprintf(log, "attempted %d, failed %d\n", res.Attempted, res.Failed)
	return res, nil
}

func printResult(w io.Writer, res result) {
	b, _ := json.Marshal(res) // a map of plain numbers always marshals
	fmt.Fprintf(w, "%s\n", b)
}

// record is one line of a --record file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path, workload string, seed int64, trace bool, res result) error {
	b, err := json.Marshal(record{workload, seed, trace, res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload, each in a child process of its own, and prints
// one combined result whose metric names carry the workload as a prefix.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "ftbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		fmt.Fprintf(stdout, "== %s: %s\n", w.name, w.why)
		out, err := runChild(self, append(append([]string(nil), args...), "--workload", w.name), stderr)
		log, last := splitLast(out)
		fmt.Fprint(stdout, log)
		if err != nil {
			fmt.Fprintf(stderr, "ftbench: workload %s: %v\n", w.name, err)
			return 1
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			fmt.Fprintf(stderr, "ftbench: workload %s printed no result: %v\n", w.name, err)
			return 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	printResult(stdout, all)
	return 0
}
