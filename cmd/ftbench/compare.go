package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// stat summarizes one side's runs of one workload × metric.
type stat struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(vals []float64) stat {
	q1, q3 := quartiles(vals)
	return stat{N: len(vals), Median: median(vals), Q1: q1, Q3: q3}
}

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

// verdict judges run set b against run set a for a metric whose better
// direction is "lower" or "higher" and whose regression bound is a share of
// a's median:
//
//   - unresolved: either side's spread is wider than the bound, unless every
//     run of one side reads better than every run of the other;
//   - worse: b's median is worse than a's by more than the bound;
//   - better: b's median is better by more than a's own spread, and b wins
//     at least nine tenths of the runs paired in recording order;
//   - tie: anything else.
func verdict(a, b []float64, better string, bound float64) string {
	sa, sb := summarize(a), summarize(b)
	// gain is b's improvement over a as a share of a's median.
	gain := (sb.Median - sa.Median) / math.Abs(sa.Median)
	beats := func(x, y float64) bool { return x > y }
	best, worst := slices.Max[[]float64], slices.Min[[]float64]
	if better == "lower" {
		gain = -gain
		beats = func(x, y float64) bool { return x < y }
		best, worst = worst, best
	}
	if max(sa.spread(), sb.spread()) > bound {
		switch {
		case beats(worst(b), best(a)):
			return "better"
		case beats(worst(a), best(b)):
			return "worse"
		}
		return "unresolved"
	}
	if -gain > bound {
		return "worse"
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := range pairs {
		if beats(b[i], a[i]) {
			wins++
		}
	}
	if gain > sa.spread() && pairs > 0 && 10*wins >= 9*pairs {
		return "better"
	}
	return "tie"
}

// readRecords groups a --record file's values by workload and metric,
// keeping recording order.
func readRecords(path string) (map[[2]string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[[2]string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		for name, m := range r.Result.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out, sc.Err()
}

// row is one workload × metric line of a digest or comparison.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        stat    `json:"a"`
	B        *stat   `json:"b,omitempty"`
	Delta    float64 `json:"delta_pct,omitempty"`
	Verdict  string  `json:"verdict,omitempty"`
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark definition whose bounds judge the end-to-end metrics")
	asJSON := fs.Bool("json", false, "print the rows as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: ftbench compare [-bench BENCHMARK.json] [-json] A.jsonl [B.jsonl]")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "ftbench compare:", err)
		return 1
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(stderr, "ftbench compare: %s: %v\n", *benchPath, err)
		return 1
	}
	var sets []map[[2]string][]float64
	for _, p := range fs.Args() {
		s, err := readRecords(p)
		if err != nil {
			fmt.Fprintln(stderr, "ftbench compare:", err)
			return 1
		}
		sets = append(sets, s)
	}
	rows := compareRows(bf, sets)
	if *asJSON {
		b, _ := json.MarshalIndent(rows, "", "  ") // rows of plain numbers always marshal
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tΔ\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s", r.Workload, r.Metric, r.A)
		if r.B != nil {
			fmt.Fprintf(tw, "\t%s\t%+.1f%%\t%s", *r.B, r.Delta, r.Verdict)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return 0
}

func (s stat) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.Median, s.Q1, s.Q3, s.N)
}

// compareRows builds one row per workload × metric present in the first run
// set, in BENCHMARK.json order; with a second set, end-to-end rows get a
// verdict (per-layer metrics have no bound and get none).
func compareRows(bf benchFile, sets []map[[2]string][]float64) []row {
	type def struct {
		name, better string
		bound        float64
	}
	var defs []def
	for _, m := range bf.EndToEnd {
		defs = append(defs, def{m.Name, m.Better, m.Bound})
	}
	for _, m := range bf.PerLayer {
		defs = append(defs, def{m.Name, "", math.NaN()})
	}
	var rows []row
	for _, w := range workloads {
		for _, d := range defs {
			a := sets[0][[2]string{w.name, d.name}]
			if len(a) == 0 {
				continue
			}
			r := row{Workload: w.name, Metric: d.name, A: summarize(a)}
			if len(sets) == 2 {
				if b := sets[1][[2]string{w.name, d.name}]; len(b) > 0 {
					sb := summarize(b)
					r.B = &sb
					r.Delta = 100 * (sb.Median - r.A.Median) / math.Abs(r.A.Median)
					if !math.IsNaN(d.bound) {
						r.Verdict = verdict(a, b, d.better, d.bound)
					}
				}
			}
			rows = append(rows, r)
		}
	}
	return rows
}
