package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// processClock reads the CPU time of every thread of the process. A timed
// call charges what it runs on its own goroutine plus the runtime work
// its allocations cause on other threads: GC mark workers, assists and
// background sweeping. With paravirtual steal accounting
// (CONFIG_PARAVIRT_TIME_ACCOUNTING) the kernel leaves out the time the
// hypervisor gave other guests, so on a shared VM the clock measures the
// call's work rather than the host's load. It is only meaningful while
// the timed goroutine is the only one working: every in-process timing
// of this benchmark is taken that way.
func processClock() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		// The clock exists on every Linux this builds for.
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// timing is one measured call: the process CPU time it took, and its
// wall time.
type timing struct {
	//ube:operational benchmark measurement, reported and never fed back into the program
	cpu time.Duration
	//ube:operational benchmark measurement, reported and never fed back into the program
	wall time.Duration
}

// cpuTimer times in-process work on the process CPU clock and the wall
// clock.
type cpuTimer struct {
	//ube:operational benchmark measurement, reported and never fed back into the program
	wall time.Time
	//ube:operational benchmark measurement, reported and never fed back into the program
	cpu time.Duration
}

func startTimer() cpuTimer {
	return cpuTimer{wall: time.Now(), cpu: processClock()}
}

func (t cpuTimer) stop() timing {
	return timing{cpu: processClock() - t.cpu, wall: time.Since(t.wall)}
}
