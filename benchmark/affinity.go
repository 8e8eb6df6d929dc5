package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// The benchmark gives the program under test a core of its own. On two
// shared cores the kernel otherwise keeps moving three busy processes
// (generator, node, origin) between them, and which process shares a core
// with which changes from run to run: the same code then measures
// 10 600 or 14 100 req/s on static_hot depending on where things landed.
// Pinning removes that source of spread, not the host's own.
//
//	sutCPU  every nakikad process
//	loadCPU this process (generator, and the in-process passes) and the origin
//
// With fewer than two usable CPUs, or where the kernel refuses the
// affinity calls, nothing is pinned and the report says so.

// cpuSet is a Linux CPU affinity mask (1024 CPUs).
type cpuSet [16]uint64

func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

func oneCPU(cpu int) *cpuSet {
	var s cpuSet
	s[cpu/64] = 1 << (cpu % 64)
	return &s
}

// threadAffinity reads the calling thread's mask.
func threadAffinity() (*cpuSet, error) {
	var s cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return &s, nil
}

// setThreadAffinity sets the calling thread's mask; threads and
// processes it creates afterwards inherit it.
func setThreadAffinity(s *cpuSet) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return nil
}

// sutCPU and loadCPU are the two cores in use, or -1 when unpinned.
var sutCPU, loadCPU = -1, -1

// pinnedEnv marks a process that has already re-executed itself on
// loadCPU and names the two cores.
const pinnedEnv = "NAKIKA_BENCHMARK_CPUS"

// pinSelf moves this process onto loadCPU. A thread's mask is inherited
// across exec, and a process starts with one thread, so setting the mask
// on this thread and re-executing the binary is the way to pin every
// thread the runtime will ever start. It returns in the re-executed
// process, or at once when fewer than two CPUs are usable.
func pinSelf() error {
	if v := os.Getenv(pinnedEnv); v != "" {
		_, err := fmt.Sscanf(v, "%d,%d", &sutCPU, &loadCPU)
		return err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	allowed, err := threadAffinity()
	if err != nil {
		return err
	}
	var cpus []int
	for cpu := 0; cpu < len(allowed)*64 && len(cpus) < 2; cpu++ {
		if allowed.has(cpu) {
			cpus = append(cpus, cpu)
		}
	}
	if len(cpus) < 2 {
		return nil
	}
	if err := setThreadAffinity(oneCPU(cpus[1])); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), fmt.Sprintf("%s=%d,%d", pinnedEnv, cpus[0], cpus[1]))
	return syscall.Exec(self, os.Args, env)
}

// startOn runs start (a process spawn) with the calling thread bound to
// cpu, so that the child's first thread, and with it all its threads,
// are bound to cpu; cpu < 0 starts it unbound.
func startOn(cpu int, start func() error) error {
	if cpu < 0 {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mine, err := threadAffinity()
	if err != nil {
		return err
	}
	if err := setThreadAffinity(oneCPU(cpu)); err != nil {
		return err
	}
	startErr := start()
	// This thread goes back to the runtime's pool: it must get its own
	// mask back even if the spawn failed.
	if err := setThreadAffinity(mine); err != nil {
		return err
	}
	return startErr
}
