package main

import (
	"bufio"
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
)

// target is the system under test: it builds a snapshot from the
// dataset, boots a server on it and reports on the serving process.
type target interface {
	// setup builds a snapshot and boots a server on it, replacing any
	// running one, and returns how many seconds that took.
	setup(ds *dataset) (float64, error)
	baseURL() string
	snapshotPath() string
	// peakRSSMB is the serving process's peak resident set.
	peakRSSMB() (float64, error)
	close() error
}

// procTarget runs the real program: `shine snapshot build` then
// `shine serve -snapshot`, as separate processes.
type procTarget struct {
	bin, dir string
	snap     string
	base     string
	srv      *child
}

func newProcTarget(bin, dir string) *procTarget {
	return &procTarget{bin: bin, dir: dir, snap: filepath.Join(dir, "model.snap")}
}

func (t *procTarget) baseURL() string      { return t.base }
func (t *procTarget) snapshotPath() string { return t.snap }

// setup times one set-up as a user meets it: the snapshot build
// (graph load, centrality, EM, mixture precompute, write) plus serve
// start-up until /v1/readyz answers 200.
func (t *procTarget) setup(ds *dataset) (float64, error) {
	if err := t.close(); err != nil {
		return 0, err
	}
	port, err := freePort()
	if err != nil {
		return 0, err
	}
	log := filepath.Join(t.dir, "shine.log")
	start := time.Now()
	build, err := startChild(t.bin, log, "snapshot", "build", "-graph", ds.graphPath, "-docs", ds.docsPath,
		"-out", t.snap, "-precompute=true")
	if err != nil {
		return 0, err
	}
	<-build.done
	if build.err != nil {
		return 0, fmt.Errorf("shine snapshot build: %v (see %s)", build.err, log)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	if t.srv, err = startChild(t.bin, log, "serve", "-snapshot", t.snap, "-addr", addr, "-drain", "2s"); err != nil {
		return 0, err
	}
	t.base = "http://" + addr
	if err := waitReady(t.base, t.srv, 60*time.Second); err != nil {
		return 0, fmt.Errorf("%v (see %s)", err, log)
	}
	return time.Since(start).Seconds(), nil
}

func (t *procTarget) peakRSSMB() (float64, error) {
	if t.srv == nil {
		return 0, errors.New("no server running")
	}
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", t.srv.cmd.Process.Pid))
}

func (t *procTarget) close() error {
	if t.srv == nil {
		return nil
	}
	err := t.srv.stop()
	t.srv = nil
	return err
}

// waitReady polls /v1/readyz until it answers 200, the server exits or
// the timeout passes. It polls every millisecond so that the poll
// interval adds little to setup_s.
func waitReady(base string, srv *child, timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-srv.done:
			return fmt.Errorf("shine serve exited before ready: %v", srv.err)
		default:
		}
		if resp, err := c.Get(base + "/v1/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server at %s not ready after %v", base, timeout)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// peakRSSMB reads VmHWM from a /proc/<pid>/status file.
func peakRSSMB(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM in %s: %w", statusPath, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

// child is a process the benchmark started. Every child is registered
// until it has exited, so the run's watchdog can kill whatever is left.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	err  error         // the exit error, readable after done
}

var children = struct {
	sync.Mutex
	live map[*child]bool
}{live: map[*child]bool{}}

// startChild starts bin with args, appending its output to logPath.
func startChild(bin, logPath string, args ...string) (*child, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	children.live[c] = true
	children.Unlock()
	go func() {
		c.err = cmd.Wait()
		logf.Close()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

// stop asks the process to drain and exit, kills it if it has not
// exited after ten seconds, and returns once it has been waited for.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-c.done:
		return nil
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
		return errors.New("server did not exit on SIGTERM; killed")
	}
}

// killChildren kills and reaps every live child; the watchdog's last
// act before exiting.
func killChildren() {
	children.Lock()
	var live []*child
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.cmd.Process.Kill()
		<-c.done
	}
}
