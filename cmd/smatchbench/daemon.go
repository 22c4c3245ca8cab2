package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

	"subgraphmatching/internal/service"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time
// in these units, and Linux fixes it at 100 on every architecture Go
// supports.
const clockTick = 100

// parseProcStat extracts utime+stime, in seconds, from the text of
// /proc/<pid>/stat. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseProcStat(text string) (float64, error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) / clockTick, nil
}

// parseVmHWM extracts the peak resident set size, in KiB, from the text
// of /proc/<pid>/status.
func parseVmHWM(text string) (uint64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// procCPU reads a process's consumed CPU seconds ("self" for the
// generator).
func procCPU(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

func procPeakRSSKiB(pid string) (uint64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// moduleRoot walks up from the working directory to the go.mod that
// owns cmd/smatchd: the benchmark builds this tree's daemon, never an
// installed one.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "smatchd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod with cmd/smatchd above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/smatchd from source into outDir.
func buildDaemon(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "smatchd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/smatchd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/smatchd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemonEnv is the environment every spawned smatchd gets: the
// caller's, with the garbage collector pinned so rss_peak_mb and
// cpu_ms_per_op do not depend on what the invoking shell exported.
func daemonEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GOGC=") || strings.HasPrefix(kv, "GOMEMLIMIT=") || strings.HasPrefix(kv, "GOMAXPROCS=") {
			continue
		}
		env = append(env, kv)
	}
	return append(env, "GOGC=100")
}

// daemon is one spawned smatchd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	pid    string
	exited chan struct{} // closed once Wait has returned
	log    *os.File
}

// startDaemon spawns bin on a free loopback port and waits until
// /healthz answers. stop must be called on the result.
func startDaemon(ctx context.Context, bin string, flags []string, logPath string) (*daemon, error) {
	// Reserve a port by binding and releasing it; smatchd rebinds it a
	// few milliseconds later.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Env = daemonEnv()
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start smatchd: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		pid:    strconv.Itoa(cmd.Process.Pid),
		exited: make(chan struct{}),
		log:    logf,
	}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant: any exit before stop is a failed run
		close(d.exited)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.log.Close()
			return nil, fmt.Errorf("smatchd exited before becoming healthy (see %s)", logPath)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("smatchd did not answer /healthz within 10s")
		}
	}
}

func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// stop terminates the daemon and returns once the process has ended.
func (d *daemon) stop() {
	if d.alive() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-d.exited:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	d.log.Close()
}

// putGraph registers the data graph as text, the way any client would.
func (d *daemon) putGraph(name string, text []byte) error {
	req, err := http.NewRequest(http.MethodPut, d.base+"/graphs/"+name, bytes.NewReader(text))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("PUT /graphs/%s: %w", name, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("PUT /graphs/%s: status %d: %s", name, resp.StatusCode, body)
	}
	return nil
}

// stats fetches GET /stats, which is service.Stats as JSON.
func (d *daemon) stats() (*service.Stats, error) {
	resp, err := http.Get(d.base + "/stats")
	if err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: status %d", resp.StatusCode)
	}
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	return &st, nil
}

// rejected sums the admission rejections over the (graph, algorithm)
// workloads the daemon tracks.
func rejected(st *service.Stats) uint64 {
	var n uint64
	for _, w := range st.Workloads {
		n += w.Rejected
	}
	return n
}
