// Command ftexperiments regenerates the tables and figures of the paper's
// evaluation (§9) on this repository's substrate.
//
// Usage:
//
//	ftexperiments -exp all                    # everything, default sizes
//	ftexperiments -exp fig7a -sizes 16,17,18  # overhead figure, 2^16..2^18
//	ftexperiments -exp table6 -faultruns 1000 # the paper's full sample count
//
// Experiment ids: fig7a fig7b table1 fig8a fig8b table2 table3 table4
// table5 table6, or "all".
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ftfft/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig7a, fig7b, table1, fig8a, fig8b, table2, table3, table4, table5, table6, all)")
	sizes := flag.String("sizes", "", "comma-separated log2 sequential sizes, e.g. 16,17,18,19")
	parallelN := flag.Int("parallel-n", 0, "log2 size for strong scaling (0 = default 20)")
	weakBase := flag.Int("weak-base", 0, "log2 per-rank size for weak scaling (0 = default 16)")
	ranks := flag.String("ranks", "", "comma-separated rank counts, e.g. 2,4,8,16")
	runs := flag.Int("runs", 0, "timing repetitions (median wall-clock time reported; fig7a/fig7b report the fastest run in thread CPU time; 0 = default 3)")
	faultRuns := flag.Int("faultruns", 0, "Monte-Carlo runs for tables 4 and 6 (0 = default 200; the paper uses 1000)")
	flag.Parse()

	o := experiments.Options{Out: os.Stdout, Runs: *runs, FaultRuns: *faultRuns}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			e, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || e < 4 || e > 30 {
				fatalf("bad -sizes entry %q (want log2 exponents 4..30)", s)
			}
			o.Sizes = append(o.Sizes, 1<<e)
		}
	}
	if *parallelN > 0 {
		o.ParallelN = 1 << *parallelN
	}
	if *weakBase > 0 {
		o.WeakBase = 1 << *weakBase
	}
	if *ranks != "" {
		for _, s := range strings.Split(*ranks, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || p < 1 {
				fatalf("bad -ranks entry %q", s)
			}
			o.Ranks = append(o.Ranks, p)
		}
	}
	if err := experiments.Run(*exp, o); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ftexperiments: "+format+"\n", args...)
	os.Exit(1)
}
