package experiments

import (
	"runtime"
	"syscall"
	"time"
)

// threadClock locks the calling goroutine to its OS thread and returns a
// clock of that thread's CPU time, so time spent descheduled by other load
// is not charged to the code being timed; release unlocks the thread.
func threadClock() (now func() time.Duration, release func()) {
	runtime.LockOSThread()
	return func() time.Duration {
		var ru syscall.Rusage
		// RUSAGE_THREAD exists on every kernel Go supports (2.6.26 and up).
		_ = syscall.Getrusage(syscall.RUSAGE_THREAD, &ru)
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}, runtime.UnlockOSThread
}
