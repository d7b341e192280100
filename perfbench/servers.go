package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The end-to-end runner talks to twserve only through its flags and
// its HTTP routes: this file launches fresh processes on free ports,
// waits for GET /v1/healthz, and reads each process's CPU time and
// peak memory from /proc.

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every mainstream Linux build).
const clockTicks = 100

// server is one running twserve process.
type server struct {
	cmd  *exec.Cmd
	url  string
	log  string
	done chan struct{} // closed once cmd.Wait returns
}

// fleet is every process one workload talks to: a single twserve,
// or two backends behind a -proxy front.
type fleet struct {
	servers  []*server
	front    string   // URL the load generator drives
	backends []string // backend URLs (the front itself when not proxied)
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches twserve with args plus a fresh -addr and
// returns without waiting for it to listen.
func startServer(bin, logPath string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A runner killed mid-run must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a server we stop ourselves carries nothing
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

// waitHealthy polls GET /v1/healthz until it answers 200, the
// process exits, or the deadline passes.
func (s *server) waitHealthy(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("twserve %s exited during start-up: %s", s.url, tail(s.log))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("twserve %s not healthy after 20s: %s", s.url, tail(s.log))
}

// stop sends SIGTERM (twserve drains and exits), escalates to
// SIGKILL after a grace period, and waits for the process to end.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// tail returns the last lines of a server log for error messages.
func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "(no log)"
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// launchFleet starts the workload's processes under dir, each with a
// fresh player store, and waits until every one answers healthz.
func launchFleet(ctx context.Context, hc *http.Client, bin, dir string, proxied bool) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{}
	startStore := func(name string) (*server, error) {
		return startServer(bin, filepath.Join(dir, name+".log"),
			"-store", "dir", "-store-dir", filepath.Join(dir, name+"-players"))
	}
	n := 1
	if proxied {
		n = 2
	}
	for i := 0; i < n; i++ {
		s, err := startStore(fmt.Sprintf("backend%d", i))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.servers = append(f.servers, s)
		f.backends = append(f.backends, s.url)
	}
	for _, s := range f.servers {
		if err := s.waitHealthy(ctx, hc); err != nil {
			f.stop()
			return nil, err
		}
	}
	f.front = f.backends[0]
	if proxied {
		p, err := startServer(bin, filepath.Join(dir, "proxy.log"), "-proxy", strings.Join(f.backends, ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.servers = append(f.servers, p)
		if err := p.waitHealthy(ctx, hc); err != nil {
			f.stop()
			return nil, err
		}
		f.front = p.url
	}
	return f, nil
}

// stop ends every process of the fleet and waits for each.
func (f *fleet) stop() {
	for _, s := range f.servers {
		s.stop()
	}
}

// cpuTime sums user+system CPU over every server process.
func (f *fleet) cpuTime() (time.Duration, error) {
	var ticks int64
	for _, s := range f.servers {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name start at field 3
		// (state); utime and stime are fields 14 and 15.
		rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
		fields := strings.Fields(rest)
		if len(fields) < 13 {
			return 0, fmt.Errorf("short /proc stat for pid %d", s.cmd.Process.Pid)
		}
		for _, fld := range fields[11:13] {
			v, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return 0, err
			}
			ticks += v
		}
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSSMB sums VmHWM (peak resident set) over every server process.
func (f *fleet) peakRSSMB() (float64, error) {
	var kb int64
	for _, s := range f.servers {
		v, err := statusField(s.cmd.Process.Pid, "VmHWM:")
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// statusField reads one "Name:  N kB" line of /proc/<pid>/status.
func statusField(pid int, name string) (int64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name) {
			fields := strings.Fields(line[len(name):])
			if len(fields) == 0 {
				break
			}
			return strconv.ParseInt(fields[0], 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no " + name + " in /proc status")
}
