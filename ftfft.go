package ftfft

import (
	"fmt"

	"ftfft/internal/core"
)

// Protection selects how a transform is guarded against soft errors.
type Protection int

const (
	// None performs a plain planned FFT with no fault tolerance — the
	// baseline the paper calls "FFTW".
	None Protection = iota
	// OfflineABFT verifies one weighted checksum after the whole transform
	// (Algorithm 1, optimized): errors are detected only at the end and
	// recovery is a full restart.
	OfflineABFT
	// OfflineABFTNaive is OfflineABFT without the §4/§7 optimizations
	// (trigonometric checksum-vector evaluation, unmerged verification).
	OfflineABFTNaive
	// OnlineABFT verifies every sub-transform of the two-layer
	// decomposition as it completes (Algorithm 2, optimized); arithmetic
	// errors are corrected by recomputing O(√N) work. Memory errors are
	// out of scope at this level.
	OnlineABFT
	// OnlineABFTNaive is the strawman online scheme of the paper's
	// introduction: offline ABFT applied verbatim to every sub-FFT.
	OnlineABFTNaive
	// OnlineABFTMemory is the flagship scheme (Fig. 3): online two-layer
	// ABFT plus memory-fault location and in-place correction, with the
	// dual-use checksums, verification postponing, incremental generation
	// and contiguous buffering optimizations.
	OnlineABFTMemory
	// OnlineABFTMemoryNaive is the Fig. 2 hierarchy: memory protection
	// before the §4 optimizations.
	OnlineABFTMemoryNaive
)

func (p Protection) String() string {
	switch p {
	case None:
		return "none"
	case OfflineABFT:
		return "offline"
	case OfflineABFTNaive:
		return "offline-naive"
	case OnlineABFT:
		return "online"
	case OnlineABFTNaive:
		return "online-naive"
	case OnlineABFTMemory:
		return "online-memory"
	case OnlineABFTMemoryNaive:
		return "online-memory-naive"
	default:
		return fmt.Sprintf("Protection(%d)", int(p))
	}
}

func (p Protection) coreConfig() (core.Config, error) {
	switch p {
	case None:
		return core.Config{Scheme: core.Plain}, nil
	case OfflineABFT:
		return core.Config{Scheme: core.Offline, Variant: core.Optimized}, nil
	case OfflineABFTNaive:
		return core.Config{Scheme: core.Offline, Variant: core.Naive}, nil
	case OnlineABFT:
		return core.Config{Scheme: core.Online, Variant: core.Optimized}, nil
	case OnlineABFTNaive:
		return core.Config{Scheme: core.Online, Variant: core.Naive}, nil
	case OnlineABFTMemory:
		return core.Config{Scheme: core.Online, Variant: core.Optimized, MemoryFT: true}, nil
	case OnlineABFTMemoryNaive:
		return core.Config{Scheme: core.Online, Variant: core.Naive, MemoryFT: true}, nil
	default:
		return core.Config{}, fmt.Errorf("ftfft: unknown protection level %d", int(p))
	}
}

// Report summarizes the fault-tolerance activity of one transform: checksum
// mismatches detected, sub-FFT recomputations, memory elements repaired,
// DMR votes, and full restarts. A zero Report means a fault-free run.
type Report = core.Report

// ErrUncorrectable is returned when the retry budget was exhausted without
// producing a verified result.
var ErrUncorrectable = core.ErrUncorrectable
