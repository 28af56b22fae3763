package metrics

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTimeID = 3

// threadCPUTime returns the CPU time consumed by the calling OS thread,
// or 0 if the clock is unavailable.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
