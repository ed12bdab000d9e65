package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procCPU is a process's user+sys CPU time summed over its live
// threads, from /proc/<pid>/task/*/schedstat (nanoseconds, not clock
// ticks). With paravirtual steal accounting the kernel charges only
// the time a thread really ran, so hypervisor steal is not included.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("listing threads of %d: %w", pid, err)
	}
	var total int64
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name(), "schedstat"))
		if err != nil {
			// The thread exited between the listing and the read.
			continue
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing schedstat of %d: %w", pid, err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// selfCPU is this process's user+sys CPU time (getrusage; steal-free
// for the same reason as procCPU).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statusKiB reads one kB-valued field of /proc/<pid>/status, such as
// "VmRSS" or "VmHWM".
func statusKiB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading status of %d: %w", pid, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s of %d: %w", field, pid, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// rssPeriod is how often an rssSampler reads the resident set.
const rssPeriod = 100 * time.Millisecond

// rssSampler reads a process's resident set (VmRSS) every rssPeriod
// from start until stop.
type rssSampler struct {
	pid         int
	quit, ended chan struct{}
	kib         []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{pid: pid, quit: make(chan struct{}), ended: make(chan struct{})}
	go func() {
		defer close(s.ended)
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			if kb, err := statusKiB(pid, "VmRSS"); err == nil {
				s.kib = append(s.kib, kb)
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the level the resident set peaks
// at, in MiB: the 95th percentile of the samples. The single maximum
// (VmHWM) is an extreme value of a signal that moves with every GC
// cycle and varied by up to a tenth between runs; it goes into
// the record as peak_rss_hwm_mb.
func (s *rssSampler) stop(rec map[string]any) (float64, error) {
	close(s.quit)
	<-s.ended
	if len(s.kib) == 0 {
		return 0, fmt.Errorf("no RSS sample of %d", s.pid)
	}
	hwm, err := statusKiB(s.pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	rec["peak_rss_hwm_mb"] = hwm / 1024
	rec["rss_samples"] = len(s.kib)
	return quantile(s.kib, 0.95) / 1024, nil
}

// cpuTicks is one reading of the aggregate "cpu" line of /proc/stat.
type cpuTicks struct {
	steal, total uint64
}

func readTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := strings.Fields(string(line))
	var t cpuTicks
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user, so it is left out.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealFrac is the host's steal share between two readings.
func stealFrac(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// hostRecord describes the machine a run measured on.
func hostRecord() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
