package main

import (
	"bytes"
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
	"sync"
	"syscall"
	"time"

	"telecast/internal/httpapi/client"
)

// buildNode compiles telecast-node into dir and returns the binary's path.
// It must run from the benchmark's module directory: the package is named by
// its import path, which the module's replace directive resolves to the
// checkout around it.
func buildNode(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "telecast-node"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "telecast/cmd/telecast-node")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build telecast-node: %w\n%s", err, out)
	}
	return bin, nil
}

// tailBuffer keeps the last max bytes written to it: the child's stderr
// tail that a failed run puts in its report.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// child is one `telecast-node serve` process on the loopback interface.
type child struct {
	cmd    *exec.Cmd
	base   string
	stderr *tailBuffer
	exited chan struct{} // closed when the process has been reaped
	err    error         // cmd.Wait's result; read after exited closes
}

// freeLoopbackAddr asks the kernel for an unused loopback port. The port is
// released before the child binds it; nothing else on the box is racing for
// ports during a benchmark run.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startChild spawns serve and returns once /healthz answers 200, with the
// time that took: process start until the first op could be served.
func startChild(bin string, seed int64, maxViewers int, cdnMbps float64, hc *http.Client) (*child, time.Duration, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, 0, err
	}
	c := &child{
		base:   "http://" + addr,
		stderr: &tailBuffer{max: 4096},
		exited: make(chan struct{}),
	}
	c.cmd = exec.Command(bin, "serve",
		"-addr", addr,
		"-seed", strconv.FormatInt(seed, 10),
		"-max-viewers", strconv.Itoa(maxViewers),
		"-cdn-mbps", strconv.FormatFloat(cdnMbps, 'f', -1, 64),
		"-telemetry=false")
	c.cmd.Stderr = c.stderr
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	cl := client.New(c.base, client.WithHTTPClient(hc))
	for {
		if h, err := cl.Health(context.Background()); err == nil && h.Status == "ok" {
			return c, time.Since(start), nil
		}
		select {
		case <-c.exited:
			return nil, 0, fmt.Errorf("telecast-node exited before it was ready: %v\n%s", c.err, c.stderr)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			c.stop()
			return nil, 0, errors.New("telecast-node not ready after 60 s")
		}
	}
}

// alive reports whether the process is still running.
func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// peakRSSMB reads the process's resident-set high-water mark. Call it
// before stop: the kernel drops /proc/<pid> when the process is reaped.
func (c *child) peakRSSMB() (float64, error) {
	return vmHWM(c.cmd.Process.Pid)
}

// vmHWM returns VmHWM of /proc/<pid>/status in MB (the kernel reports kB).
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := strings.CutPrefix(string(line), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stop asks the child to drain (SIGTERM) and waits until it has been reaped,
// killing it if the drain takes more than ten seconds.
func (c *child) stop() {
	if c.alive() {
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it just exited
	}
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}
