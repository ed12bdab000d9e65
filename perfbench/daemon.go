package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one dvfsd subprocess, started with its default flags apart
// from the listen address.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	log    *os.File      // its stderr: the request log
	exited chan struct{} // closed once cmd.Wait has returned
}

// startDaemon runs dvfsd on a free loopback port and returns once it
// answers /healthz. Its request log (stderr) goes to a file in dir, so
// that no process of the harness spends CPU on it: the predict
// workload uses the harness's own CPU as its host-speed reference.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := os.CreateTemp(dir, "dvfsd-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = log
	// If the harness dies, the daemon must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		os.Remove(log.Name())
		return nil, fmt.Errorf("starting dvfsd: %w", err)
	}
	d := &daemon{cmd: cmd, log: log, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	// dvfsd logs its resolved listen address once it is listening.
	deadline := time.Now().Add(30 * time.Second)
	for d.url == "" {
		data, err := os.ReadFile(log.Name())
		if err != nil {
			d.stop()
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.Contains(line, `msg="dvfsd listening"`) {
				continue
			}
			for _, f := range strings.Fields(line) {
				if a, ok := strings.CutPrefix(f, "addr="); ok {
					d.url = "http://" + a
				}
			}
		}
		if d.url != "" {
			break
		}
		select {
		case <-d.exited:
			d.stop()
			return nil, fmt.Errorf("dvfsd exited during start-up")
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("dvfsd did not report its listen address within 30s")
		}
	}
	resp, err := http.Get(d.url + "/healthz")
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("dvfsd health check: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("dvfsd health check: status %d", resp.StatusCode)
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// setUpDaemon performs a daemon workload's set-up repeats times: start
// dvfsd, run ready on it (training, for predict), and read the CPU time
// the daemon has used since exec. Every daemon but the last is stopped;
// the last is returned for measuring, with each set-up's CPU and wall
// time in seconds.
func setUpDaemon(ctx context.Context, e *env, repeats int, ready func(*daemon) error) (d *daemon, cpu, wall []float64, err error) {
	for r := 0; r < repeats; r++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if d, err = startDaemon(ctx, e.dvfsd, filepath.Join(e.workdir, "run")); err != nil {
			return nil, nil, nil, err
		}
		if ready != nil {
			if err := ready(d); err != nil {
				d.stop()
				return nil, nil, nil, err
			}
		}
		wall = append(wall, time.Since(t0).Seconds())
		c, err := procCPU(d.pid())
		if err != nil {
			d.stop()
			return nil, nil, nil, err
		}
		cpu = append(cpu, c.Seconds())
	}
	return d, cpu, wall, nil
}

// stop asks dvfsd to drain (SIGTERM), kills it after 10 s, waits
// until the process has exited, and removes its log.
func (d *daemon) stop() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	d.log.Close()
	os.Remove(d.log.Name())
}

// metrics scrapes /metrics into series → value, keyed by the series
// text as exposed (`name{label="v"}`).
func (d *daemon) metrics(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(d.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// routeDuration is dvfsd's own request-duration histogram for one
// route: the summed seconds and the request count.
func routeDuration(m map[string]float64, route string) (sum, count float64) {
	lbl := `{route="` + route + `"}`
	return m["dvfsd_request_duration_seconds_sum"+lbl], m["dvfsd_request_duration_seconds_count"+lbl]
}
