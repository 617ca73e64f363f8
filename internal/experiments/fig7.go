package experiments

import (
	"fmt"

	"ftfft/internal/core"
	"ftfft/internal/workload"
)

// Fig7a reproduces Fig. 7(a): fault-free overhead of the computational-FT
// schemes relative to the plain FFT, per size. Expected shape (paper):
// Offline ≫ Opt-Offline; the naive online scheme is the worst (it re-derives
// checksum vectors per sub-FFT, ≥2× the offline cost); Opt-Online is the
// cheapest of all protected schemes.
func Fig7a(o Options) error {
	o = o.withDefaults()
	header(o.Out, "Fig 7(a) — overhead (%) without faults, computational FT")
	fmt.Fprintf(o.Out, "%-10s %12s %12s %12s %12s\n",
		"N", "Offline", "Opt-Offline", "CFTO-Online", "Opt-Online")
	schemes := []core.Config{
		{Scheme: core.Offline, Variant: core.Naive},
		{Scheme: core.Offline, Variant: core.Optimized},
		{Scheme: core.Online, Variant: core.Naive},
		{Scheme: core.Online, Variant: core.Optimized},
	}
	return overheadRows(o, schemes)
}

// Fig7b reproduces Fig. 7(b): fault-free overhead with both computational
// and memory FT. "Online" is the Fig. 2 hierarchy (computational
// optimizations only); "Opt-Online" is the Fig. 3 optimized hierarchy.
func Fig7b(o Options) error {
	o = o.withDefaults()
	header(o.Out, "Fig 7(b) — overhead (%) without faults, computational+memory FT")
	fmt.Fprintf(o.Out, "%-10s %12s %12s %12s %12s\n",
		"N", "Offline", "Opt-Offline", "Online", "Opt-Online")
	schemes := []core.Config{
		{Scheme: core.Offline, Variant: core.Naive, MemoryFT: true},
		{Scheme: core.Offline, Variant: core.Optimized, MemoryFT: true},
		{Scheme: core.Online, Variant: core.Naive, MemoryFT: true},
		{Scheme: core.Online, Variant: core.Optimized, MemoryFT: true},
	}
	return overheadRows(o, schemes)
}

func overheadRows(o Options, schemes []core.Config) error {
	for _, n := range o.Sizes {
		src := workload.Uniform(int64(n), n)
		cfgs := append([]core.Config{{Scheme: core.Plain}}, schemes...)
		ts, err := timeSchemes(n, cfgs, src, o.Runs)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "2^%-8d", log2(n))
		for _, t := range ts[1:] {
			fmt.Fprintf(o.Out, " %11.1f%%", overheadPct(t, ts[0]))
		}
		fmt.Fprintln(o.Out)
	}
	return nil
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
