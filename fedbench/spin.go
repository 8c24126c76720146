package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Keep-awake spinners. On a virtual machine an idle vCPU halts, and waking
// it again goes through the host's scheduler: each request between the
// harness and the daemon then pays one or more host wake-ups, whose cost is
// a large and unsteady share of a sub-millisecond latency and follows the
// host's load, not the program's. One spinner per CPU, each pinned to its CPU
// and running under SCHED_IDLE, keeps every vCPU from halting; any ordinary
// thread that becomes runnable preempts a SCHED_IDLE one at once and gets
// the CPU as if it were idle, so the spinners take no CPU from the harness or
// the daemon.

// spinEnv holds the CPU number in a spinner child's environment.
const spinEnv = "FEDBENCH_SPIN_CPU"

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// spinChild runs the spinner loop when this process was started as one, and
// otherwise returns.
func spinChild() {
	v, ok := os.LookupEnv(spinEnv)
	if !ok {
		return
	}
	cpu, err := strconv.Atoi(v)
	if err != nil {
		os.Exit(2)
	}
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	var mask [16]uint64 // room for 1024 CPUs
	if cpu >= 0 && cpu < 1024 {
		mask[cpu/64] = 1 << (cpu % 64)
	}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		os.Exit(3)
	}
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		os.Exit(4)
	}
	for {
	}
}

// spinners is the set of running spinner processes.
type spinners []*exec.Cmd

// startSpinners starts one spinner per CPU this process may run on.
func startSpinners() (spinners, error) {
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %v", e)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var s spinners
	for cpu := 0; cpu < 1024; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", spinEnv, cpu))
		// A spinner must not outlive the harness, even if the harness is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			s.stop()
			return nil, fmt.Errorf("starting spinner: %w", err)
		}
		s = append(s, cmd)
	}
	return s, nil
}

// stop kills every spinner and waits for each to end. A spinner that ended
// on its own could not pin itself or lower its priority; the run went on
// without it, and the report says so.
func (s spinners) stop() {
	for _, cmd := range s {
		_ = cmd.Process.Kill() // one that already ended is reported by Wait
	}
	for _, cmd := range s {
		if err := cmd.Wait(); cmd.ProcessState != nil && cmd.ProcessState.Exited() {
			fmt.Fprintf(os.Stderr, "fedbench: a keep-awake spinner ended early: %v\n", err)
		}
	}
}
