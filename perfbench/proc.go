package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. Linux fixes it at 100 for user space.
const clockTick = 10 * time.Millisecond

// daemon is one errpropd process the benchmark started, in its own
// process group so that a gateway's spawned backends can be stopped with
// it.
type daemon struct {
	cmd      *exec.Cmd
	dir      string // boot directory: portfile, log, TMPDIR
	portfile string
	addr     string
	log      *os.File
	started  time.Time     // just before exec
	done     chan struct{} // closed once the main process has been reaped
}

// startDaemon execs errpropd with argv in a fresh directory under
// e.work. TMPDIR points into that directory, so the gateway's scratch
// files stay inside the checkout.
func (e *env) startDaemon(tag string, argv []string) (*daemon, error) {
	dir, err := os.MkdirTemp(e.work, tag+"-")
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "errpropd.log"))
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, portfile: filepath.Join(dir, "port"), log: logf, done: make(chan struct{})}
	args := append([]string{"-addr", "127.0.0.1:0", "-portfile", d.portfile}, argv...)
	d.cmd = exec.Command(e.errpropd, args...)
	d.cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting errpropd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a drained or killed daemon carries nothing to report
		close(d.done)
	}()
	return d, nil
}

// exited reports whether the daemon's main process has ended.
func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// logTail returns the end of the daemon's log for error messages.
func (d *daemon) logTail() string {
	raw, err := os.ReadFile(d.log.Name())
	if err != nil {
		return ""
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return strings.TrimSpace(string(raw))
}

// pids returns the daemon's process and its direct children (a
// gateway's spawned backends).
func (d *daemon) pids() []int {
	pid := d.cmd.Process.Pid
	return append([]int{pid}, childPIDs(pid)...)
}

// stop drains the daemon with SIGTERM, as an operator would, and waits
// until every process of its group has ended. A daemon that does not
// drain within the grace period is killed.
func (d *daemon) stop() error {
	defer d.log.Close()
	pgid := d.cmd.Process.Pid
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
		<-d.done
		err = fmt.Errorf("errpropd did not drain within 20s; killed")
	}
	// The main process is gone; make sure the rest of its group is too.
	deadline := time.Now().Add(10 * time.Second)
	for syscall.Kill(-pgid, 0) == nil {
		if time.Now().After(deadline) {
			_ = syscall.Kill(-pgid, syscall.SIGKILL)
			deadline = time.Now().Add(10 * time.Second)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return err
}

// childPIDs lists the direct children of pid.
func childPIDs(pid int) []int {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/children", pid))
	var out []int
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		for _, f := range strings.Fields(string(raw)) {
			if c, err := strconv.Atoi(f); err == nil {
				out = append(out, c)
			}
		}
	}
	return out
}

// procCPU returns the user plus system CPU time a process has used,
// summed over all its threads, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	// After ')': state(3) ppid(4) ... utime(14) stime(15), 1-based over the full line.
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

// cpuOf sums procCPU over pids.
func cpuOf(pids []int) (time.Duration, error) {
	var total time.Duration
	for _, p := range pids {
		c, err := procCPU(p)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// peakRSS returns a process's peak resident set size (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	return statusKB(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:")
}

func statusKB(path, key string) (int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// peakRSSOf sums peakRSS over pids, in MB.
func peakRSSOf(pids []int) (float64, error) {
	var total int64
	for _, p := range pids {
		b, err := peakRSS(p)
		if err != nil {
			return 0, err
		}
		total += b
	}
	return float64(total) / (1 << 20), nil
}

// selfCPU returns the benchmark process's own user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetSelfPeakRSS sets this process's VmHWM back to its current RSS, so
// a later reading covers only what ran after the reset.
func resetSelfPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTimes is the machine-wide line of /proc/stat: user, nice, system,
// idle, iowait, irq, softirq and steal ticks.
type cpuTimes [8]int64

func readCPUTimes() cpuTimes {
	var ct cpuTimes
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ct
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i := range ct {
		if i+1 < len(f) {
			ct[i], _ = strconv.ParseInt(f[i+1], 10, 64)
		}
	}
	return ct
}

// stealSince is the share of the machine's CPU time the hypervisor gave
// to other guests since ct0: interference the run cannot control, logged
// so that a noisy run can be recognised.
func stealSince(ct0 cpuTimes) float64 { return stealBetween(ct0, readCPUTimes()) }

func stealBetween(ct0, ct1 cpuTimes) float64 {
	var total int64
	for i := range ct1 {
		total += ct1[i] - ct0[i]
	}
	if total <= 0 {
		return 0
	}
	return float64(ct1[7]-ct0[7]) / float64(total)
}
