package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// findRepoRoot walks up from the working directory to the checkout root: the
// directory that holds both the server's sources and this benchmark.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isDir(filepath.Join(dir, "cmd", "cdml-serve")) && isFile(filepath.Join(dir, "benchmark", "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a cdml checkout: no directory above holds cmd/cdml-serve and benchmark/go.mod")
		}
		dir = parent
	}
}

func isDir(p string) bool  { st, err := os.Stat(p); return err == nil && st.IsDir() }
func isFile(p string) bool { st, err := os.Stat(p); return err == nil && st.Mode().IsRegular() }

// buildServer compiles ./cmd/cdml-serve from the checkout's sources into
// workDir and returns the binary's path. go build leaves an up-to-date
// binary alone, so repeated runs in one checkout pay for one link.
func buildServer(ctx context.Context, root, workDir string) (string, error) {
	bin := filepath.Join(workDir, "bin", "cdml-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin, "./cmd/cdml-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cdml-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed again before the server binds it; nothing else on a benchmark box
// races for loopback ports in that gap.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// server is one running cdml-serve child process.
type server struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:<port>
	logf   *os.File      // the child's stdout+stderr
	exited chan struct{} // closed once Wait has returned
	waitEr error         // Wait's result, valid after exited is closed
	bootS  float64       // exec → first 200 from the health route
}

// healthPoll is how often readiness is probed while the server boots.
const healthPoll = 5 * time.Millisecond

// stopGrace is how long a SIGTERMed server may take to drain before it is
// killed; the server's own -drain default is 15 s, ours is shorter because
// nothing is in flight when we stop it.
const stopGrace = 10 * time.Second

// startServer execs bin with args on a fresh loopback port and returns once
// the health route answers 200. It fails fast when the process exits
// first. The child's output goes to logPath (appended, so a restart on the
// same directory keeps the first life's log).
func startServer(ctx context.Context, bin, logPath string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark itself be killed, the kernel takes the server
	// down with it: no orphan keeps a port and two cores from the next run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, logf: logf, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		s.waitEr = cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}, Timeout: time.Second}
	tick := time.NewTicker(healthPoll)
	defer tick.Stop()
	for {
		resp, err := probe.Get(s.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.bootS = time.Since(start).Seconds()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			_ = logf.Close()
			return nil, fmt.Errorf("server exited before it was ready: %v\n%s", s.waitEr, tailOf(logPath, 2048))
		case <-ctx.Done():
			s.kill()
			return nil, fmt.Errorf("waiting for server readiness: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

// alive reports an early exit as an error; load loops call it when a
// request fails so "connection refused" is reported as what it is.
func (s *server) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("server exited during the run: %v", s.waitEr)
	default:
		return nil
	}
}

// stop asks the server to drain (SIGTERM), waits, and kills it after
// stopGrace. It returns once the process has been reaped.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(stopGrace):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	_ = s.logf.Close()
}

// kill is the crash: SIGKILL, no drain, and wait for the process to be gone.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
	_ = s.logf.Close()
}

// tailOf returns the last n bytes of a file, for error reports.
func tailOf(path string, n int64) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer func() { _ = f.Close() }()
	if st, err := f.Stat(); err == nil && st.Size() > n {
		_, _ = f.Seek(-n, io.SeekEnd)
	}
	b, _ := io.ReadAll(f)
	return string(b)
}
