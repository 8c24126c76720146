package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running fedschedd process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	started time.Time // just before exec
	drained chan struct{}
	stopped bool
}

// startDaemon execs fedschedd on a free loopback port and returns once it is
// listening, which it announces on stdout after recovery (if any) is done.
func startDaemon(bin string, args ...string) (*daemon, error) {
	return startServer(bin, nil, args...)
}

// startServer execs a server that takes -addr and announces "listening on
// <url>" on stdout; env is added to the harness's environment.
func startServer(bin string, env []string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the harness, even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				addr <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case u, ok := <-addr:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("fedschedd exited before listening")
		}
		d.url = u
		return d, nil
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("fedschedd did not listen within 60s")
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it has
// not exited within ten seconds. It reports a non-clean exit as an error.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reported by Wait
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("fedschedd exit: %w", err)
	}
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTick = 10 * time.Millisecond

// procCPU is the CPU time (user + system) a process has used.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procHWM is a process's peak resident set size (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is the harness's own CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
