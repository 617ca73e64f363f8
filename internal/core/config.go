// Package core implements the paper's primary contribution: offline and
// online algorithm-based fault tolerance for FFT, with and without memory
// protection, in their naive and optimized variants.
//
// The sequential schemes all share the same two-layer Cooley-Tukey substrate
// (paper Eq. 2 with N = m·k): k m-point sub-FFTs over stride-k sub-vectors,
// a twiddle multiplication, and m k-point sub-FFTs over the columns of the
// k×m intermediate. What differs between schemes is where checksums are
// generated and verified:
//
//   - Offline (Algorithm 1): one input checksum vector of size N, one
//     verification after the whole transform; errors force a full restart.
//   - Online (Algorithm 2): per-sub-FFT checksums at both layers with the
//     twiddle stage under DMR; errors are detected right after the sub-FFT
//     they strike and recovered by recomputing O(√N) work.
//   - MemoryFT adds the §3.2 weighted location/correction checksums, in the
//     Fig. 2 hierarchy (naive) or the Fig. 3 optimized hierarchy (CMCG/CMCV
//     dual-use checksums, verification postponing, incremental generation,
//     contiguous buffering).
package core

import (
	"ftfft/internal/fault"
	"ftfft/internal/fft"
)

// Scheme selects the protection protocol.
type Scheme int

const (
	// Plain is the unprotected baseline ("FFTW" in the figures): the same
	// two-layer substrate with no checksum work at all.
	Plain Scheme = iota
	// Offline is Algorithm 1: verify once, after the transform.
	Offline
	// Online is Algorithm 2: verify every sub-FFT as it completes.
	Online
)

func (s Scheme) String() string {
	switch s {
	case Plain:
		return "plain"
	case Offline:
		return "offline"
	case Online:
		return "online"
	default:
		return "unknown-scheme"
	}
}

// Variant selects between the paper's naive formulation of a scheme and the
// §4/§7 optimized one.
type Variant int

const (
	// Naive pays the costs the paper's optimizations remove: trigonometric
	// checksum-vector evaluation, non-contiguous double reads, per-call
	// checksum-vector regeneration, and (with MemoryFT) the Fig. 2 protocol
	// that generates and verifies every intermediate element twice.
	Naive Variant = iota
	// Optimized applies §4.1–§4.4: closed-form incremental rA, dual-use
	// modified checksums, verification postponing, incremental generation,
	// and contiguous gather buffers.
	Optimized
)

func (v Variant) String() string {
	if v == Naive {
		return "naive"
	}
	return "optimized"
}

// Config parameterizes a Transformer.
type Config struct {
	Scheme  Scheme
	Variant Variant
	// MemoryFT enables the §3.2 memory-fault protection on top of the
	// computational protection.
	MemoryFT bool
	// Injector, when non-nil, is consulted at every fault site; nil means
	// fault-free execution.
	Injector fault.Injector
	// Thresholds overrides the automatically derived detection thresholds.
	Thresholds *Thresholds
	// EtaScale multiplies all automatically derived thresholds
	// (experiments use it to trade throughput against coverage). 0 means 1.
	EtaScale float64
	// MaxRetries caps recomputation attempts per protected unit before the
	// transform is declared uncorrectable. 0 means 3.
	MaxRetries int
	// ConvLen, when non-nil, chooses the Bluestein convolution length per
	// leaf size for the sub-FFT plans (see fft.PlanConfig.ConvLen); nil keeps
	// the heuristic chooser.
	ConvLen func(leaf int) int
}

// planConfig is the fft-level knob view of the Config.
func (c Config) planConfig() fft.PlanConfig {
	return fft.PlanConfig{ConvLen: c.ConvLen}
}

func (c Config) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 3
}

func (c Config) etaScale() float64 {
	if c.EtaScale > 0 {
		return c.EtaScale
	}
	return 1
}

// Thresholds holds the η values of §8. Zero values are filled from the
// round-off model at Transform time using the measured input RMS.
type Thresholds struct {
	// Eta1 guards first-layer (m-point) computational verifications.
	Eta1 float64
	// Eta2 guards second-layer (k-point) computational verifications.
	Eta2 float64
	// EtaOffline guards the single offline verification.
	EtaOffline float64
	// EtaMemCross guards memory verifications whose recomputation uses a
	// different summation order than generation (the Fig. 3 incremental
	// checksums); same-order verifications compare exactly.
	EtaMemCross float64
	// EtaMemOut guards the final whole-output verification.
	EtaMemOut float64
}

// Report summarizes what a protected transform observed and did.
type Report struct {
	// Detections counts checksum mismatches observed (before recovery).
	Detections int
	// CompRecomputations counts sub-FFT (online) re-executions.
	CompRecomputations int
	// MemCorrections counts elements located and repaired in place.
	MemCorrections int
	// TwiddleCorrections counts DMR mismatches resolved by re-execution.
	TwiddleCorrections int
	// FullRestarts counts whole-transform re-runs (offline scheme).
	FullRestarts int
	// Uncorrectable is set when MaxRetries was exhausted; the output must
	// not be trusted.
	Uncorrectable bool
}

// Add accumulates r2 into r.
func (r *Report) Add(r2 Report) {
	r.Detections += r2.Detections
	r.CompRecomputations += r2.CompRecomputations
	r.MemCorrections += r2.MemCorrections
	r.TwiddleCorrections += r2.TwiddleCorrections
	r.FullRestarts += r2.FullRestarts
	r.Uncorrectable = r.Uncorrectable || r2.Uncorrectable
}

// Clean reports whether no fault activity of any kind was recorded.
func (r *Report) Clean() bool {
	return r.Detections == 0 && r.CompRecomputations == 0 && r.MemCorrections == 0 &&
		r.TwiddleCorrections == 0 && r.FullRestarts == 0 && !r.Uncorrectable
}
