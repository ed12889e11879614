//go:build linux

package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// oneCPUEnv marks a process that has already restarted itself on one CPU;
// its value is the CPU. A process that finds it set, to any value, does not
// restart, so an inherited setting cannot make it restart forever.
const oneCPUEnv = "PERFBENCH_ONE_CPU"

type cpuMask [16]uint64 // 1024 CPUs

// runOnOneCPU restarts the benchmark confined to one CPU, the highest
// numbered one it may use. It returns only if the restart has already been
// made or cannot be made. The mask is set on the calling thread and
// survives execve, so after the restart every thread the runtime starts
// inherits it.
func runOnOneCPU() error {
	if _, done := os.LookupEnv(oneCPUEnv); done {
		return nil
	}
	var all cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := len(all)*64 - 1; i >= 0 && cpu < 0; i-- {
		if all[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return errors.New("sched_getaffinity: empty mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	err := syscall.Exec(os.Args[0], os.Args, append(os.Environ(), oneCPUEnv+"="+strconv.Itoa(cpu)))
	// Still here: put the thread back on every CPU it had.
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all)))
	return fmt.Errorf("restarting %s: %w", os.Args[0], err)
}
