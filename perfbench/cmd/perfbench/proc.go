package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"

	"evax/internal/serve"
)

// userHZ is the tick rate of the utime/stime fields in /proc/<pid>/stat
// (USER_HZ, fixed at 100 on Linux).
const userHZ = 100

// selfCPU returns this process's CPU seconds (user+sys, all threads) from
// getrusage, which the kernel reports at microsecond resolution.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// procCPU returns a live process's CPU seconds (user+sys, all threads) from
// /proc/<pid>/stat, at USER_HZ tick resolution.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start
	// past the closing parenthesis, with state as field 3.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("perfbench: malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("perfbench: short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("perfbench: /proc/%d/stat: %w", pid, err)
	}
	return float64(ut+st) / userHZ, nil
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("perfbench: %s VmHWM: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("perfbench: no VmHWM in %s", path)
}

// stealSeconds returns the host-wide steal time from /proc/stat: CPU time
// the hypervisor ran something else while this guest had work.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / userHZ
}

// daemon is a running evaxd child process.
type daemon struct {
	cmd  *exec.Cmd
	out  *bufio.Reader
	addr string
}

// startDaemon launches evaxd and waits for its "serving ... on <addr>" line.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// evaxd dies with the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("perfbench: evaxd stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("perfbench: starting evaxd: %w", err)
	}
	d := &daemon{cmd: cmd, out: bufio.NewReader(pipe)}
	for {
		line, err := d.out.ReadString('\n')
		if err != nil {
			_, kerr := d.kill()
			return nil, fmt.Errorf("perfbench: evaxd exited before serving: %w", errors.Join(err, kerr))
		}
		if rest, ok := strings.CutPrefix(line, "evaxd: serving "); ok {
			_, after, found := strings.Cut(rest, " on ")
			if !found {
				_, kerr := d.kill()
				return nil, errors.Join(fmt.Errorf("perfbench: unparsable evaxd line %q", line), kerr)
			}
			d.addr = strings.Fields(after)[0]
			return d, nil
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill stops the daemon at once and returns the CPU seconds it used, exact
// to the microsecond (from wait4's rusage).
func (d *daemon) kill() (float64, error) {
	kerr := d.cmd.Process.Kill()
	_, cerr := io.Copy(io.Discard, d.out)
	werr := d.cmd.Wait()
	var ee *exec.ExitError
	if errors.As(werr, &ee) {
		werr = nil // killed on purpose
	}
	if err := errors.Join(kerr, cerr, werr); err != nil {
		return 0, fmt.Errorf("perfbench: killing evaxd: %w", err)
	}
	st := d.cmd.ProcessState
	return st.UserTime().Seconds() + st.SystemTime().Seconds(), nil
}

// stop drains the daemon gracefully (SIGTERM) and returns its final metrics
// snapshot.
func (d *daemon) stop() (serve.Snapshot, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return serve.Snapshot{}, fmt.Errorf("perfbench: signalling evaxd: %w", err)
	}
	rest, rerr := io.ReadAll(d.out)
	werr := d.cmd.Wait()
	if err := errors.Join(rerr, werr); err != nil {
		return serve.Snapshot{}, fmt.Errorf("perfbench: draining evaxd: %w", err)
	}
	_, js, ok := strings.Cut(string(rest), "evaxd: drained: ")
	if !ok {
		return serve.Snapshot{}, fmt.Errorf("perfbench: evaxd printed no drain snapshot")
	}
	var snap serve.Snapshot
	if err := json.Unmarshal([]byte(js), &snap); err != nil {
		return serve.Snapshot{}, fmt.Errorf("perfbench: evaxd drain snapshot: %w", err)
	}
	return snap, nil
}
