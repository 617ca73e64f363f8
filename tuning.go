package ftfft

import (
	"ftfft/internal/core"
	"ftfft/internal/tune"
)

// TuningMode selects the plan-time tuning policy; see WithTuning.
type TuningMode int

const (
	// TuneEstimate keeps the analytic heuristics every choice shipped with
	// and ignores the wisdom table entirely — the default, bit-identical to
	// untuned behavior.
	TuneEstimate TuningMode = iota
	// TuneMeasured times the legal Bluestein convolution lengths at plan
	// build (FFTW's MEASURE) and records the winners as wisdom.
	TuneMeasured
	// tuneWisdom applies wisdom hits but never measures on a miss — the
	// serving policy, installed internally by ListenServe so a service
	// follows imported wisdom deterministically without pausing a request
	// to benchmark.
	tuneWisdom
)

// ExportWisdom serializes the process-wide wisdom table — every measured
// winner recorded by TuneMeasured plan builds — as a versioned, checksummed
// blob. The canonical fleet workflow: tune once on one canary host, export,
// ship the file, ImportWisdom everywhere (including services via the
// -wisdom flag on ftserve); plans built from the same wisdom make identical
// choices and therefore produce bit-identical outputs.
func ExportWisdom() []byte { return tune.Export() }

// ImportWisdom merges an ExportWisdom blob into the process-wide wisdom
// table and bumps the wisdom epoch (serve plan caches key on it, so cached
// plans tuned under different wisdom are never mixed). A malformed blob, an
// entry off its leaf's convolution ladder, or a blob in an older wisdom
// version (re-tune to regenerate it) is rejected whole with no table change.
func ImportWisdom(data []byte) error { return tune.Import(data) }

// ForgetWisdom clears the process-wide wisdom table and bumps the epoch.
func ForgetWisdom() { tune.Forget() }

// applyCoreTuning installs the Bluestein convolution-length chooser on a
// core config under the plan's tuning mode. TuneEstimate leaves the config
// untouched — the nil chooser reproduces pre-tuning plans bit for bit.
func applyCoreTuning(cfg *core.Config, c *config) {
	if c.tuning != TuneEstimate {
		cfg.ConvLen = convChooser(c.tuning == TuneMeasured)
	}
}

// convChooser is the ConvLen callback for the tuned modes: a wisdom hit
// wins (the table holds only lengths on their leaf's ladder), a miss
// measures the ladder and records the winner when measure is set, and
// anything else defers to the convCost heuristic (return 0).
func convChooser(measure bool) func(int) int {
	return func(leaf int) int {
		key, ok := tune.KeyFor(leaf)
		if !ok {
			return 0
		}
		if m, hit := tune.Lookup(key); hit || !measure {
			return m // 0 on a miss
		}
		m := tune.MeasureConv(leaf)
		tune.Record(key, m)
		return m
	}
}
