//go:build !linux

package experiments

import "time"

// threadClock falls back to wall-clock time where no per-thread CPU clock
// is wired up.
func threadClock() (now func() time.Duration, release func()) {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }, func() {}
}
