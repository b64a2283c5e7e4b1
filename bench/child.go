package main

import (
	"bufio"
	"fmt"
	"io"
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

// buildOptserve compiles the service binary from the checkout's source.
// Building is not part of set-up: the go command's cache makes a second
// build a no-op, and setup_s is what an operator pays at every start.
func buildOptserve(cfg config) (string, error) {
	if err := os.MkdirAll(cfg.BinDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(cfg.BinDir, "optserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/optserve")
	cmd.Dir = cfg.Root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/optserve: %w\n%s", err, out)
	}
	return bin, nil
}

// child is a running optserve process.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	exited chan struct{} // closed once Wait has returned
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on a benchmark host
// races for the port in between.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

const (
	healthWait = 15 * time.Second
	stopWait   = 5 * time.Second
)

// startChild starts optserve with its default flags plus extra, its
// stderr going to logPath, and returns once /healthz answers 200.
func startChild(bin, logPath string, extra ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the runner dies without reaching stop, the kernel kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a process we signal ourselves says nothing
		close(c.exited)
	}()
	if err := c.waitHealthy(); err != nil {
		c.stop()
		return nil, fmt.Errorf("%w (see %s)", err, logPath)
	}
	return c, nil
}

func (c *child) waitHealthy() error {
	deadline := time.Now().Add(healthWait)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return fmt.Errorf("optserve exited before answering /healthz")
		default:
		}
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("optserve did not answer /healthz within %s", healthWait)
}

// stop ends the child — SIGTERM first so it drains, SIGKILL if it does
// not — and returns only after it has been reaped.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(stopWait):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
	c.log.Close()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// mallocs reads the child's cumulative heap-allocation count from the
// MemStats block the runtime appends to /debug/pprof/heap?debug=1.
func (c *child) mallocs() (uint64, error) {
	resp, err := http.Get(c.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# Mallocs = "); ok {
			return strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no Mallocs line in the child's heap profile")
}
