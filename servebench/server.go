package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one trajserve process on loopback.
type server struct {
	cmd   *exec.Cmd
	base  string   // http://127.0.0.1:port
	args  []string // the exact flags it was started with
	log   *os.File
	start time.Time // just before the process was spawned
	ready time.Time // when /healthz first answered 200
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer starts trajserve on a fresh port with dataDir and flags,
// and returns once /healthz answers 200. start is taken just before the
// process is spawned: set-up time counts from there.
func startServer(bin, dataDir, logPath string, flags []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-data-dir", dataDir}, flags...)
	s := &server{base: fmt.Sprintf("http://127.0.0.1:%d", port), args: args, log: logf}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// trajserve must not outlive the benchmark, however it ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.start = time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start trajserve: %w", err)
	}
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		resp, err := probe.Get(s.base + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			s.ready = time.Now()
			return s, nil
		}
	}
	s.kill()
	return nil, errors.New("trajserve did not become ready within 30 s")
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func (s *server) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the process's user plus system CPU time from
// /proc/<pid>/stat, in clock ticks of 1/100 s (USER_HZ on Linux).
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// cpuTicks is the machine's CPU time from /proc/stat, in clock ticks:
// the total over all states, and steal, the time a hypervisor ran other
// guests while this machine's CPUs had work.
type cpuTicks struct{ total, steal float64 }

// hostCPU reads the machine's CPU time. It reads zero where /proc/stat
// is missing or unreadable: steal is a diagnostic, and nothing else in
// the run depends on it.
func hostCPU() cpuTicks {
	var t cpuTicks
	raw, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return t
	}
	for i, v := range f[1:9] { // guest time, after steal, is already in user
		x, _ := strconv.ParseFloat(v, 64)
		t.total += x
		if i == 7 {
			t.steal = x
		}
	}
	return t
}

// stealShare is the share of the machine's CPU time stolen from a to b:
// how much of its CPUs the machine's neighbours took in that phase.
func stealShare(a, b cpuTicks) float64 { return ratio(b.steal-a.steal, b.total-a.total) }

// stop shuts trajserve down gracefully (SIGTERM flushes every live
// session and closes the store) and waits for it to exit.
func (s *server) stop() error {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return errors.New("trajserve did not exit within 60 s of SIGTERM")
	}
}

// kill ends trajserve at once; for error paths.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.log.Close()
}

// conn is one keep-alive HTTP/1.1 connection to the server: the load
// generator holds at most two.
type conn struct {
	c    *http.Client
	base string
	body bytes.Buffer // last response body, reused
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// do sends one request and reads the whole response. The returned body
// is valid until the next call.
func (c *conn) do(method, path, ctype string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := c.body.ReadFrom(resp.Body); err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, c.body.Bytes(), nil
}
