package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// daemon is a streamcountd child process with a private segment directory.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	dir  string
	done chan error
}

// daemonProcs is the GOMAXPROCS streamcountd runs with. At GOMAXPROCS=2 on
// a 2-vCPU shared host about a third of the daemon's CPU time on
// insertion-count went to the Go scheduler's idle processor looking for
// work, and that share rose and fell with what else the host ran: CPU per
// query read 57 ms alone and 47-50 ms beside a one-core memory-bound
// neighbour. With one processor it read 34-36 ms in all three cases, at no
// worse latency. The traced run keeps the host's GOMAXPROCS and reports the
// runner's parallel speedup.
const daemonProcs = 1

// startDaemon starts streamcountd with its default flags, a loopback port,
// a segment directory under dir and GOMAXPROCS=daemonProcs, and returns
// once /healthz reports it ready.
func startDaemon(bin, dir string) (*daemon, error) {
	if bin == "" {
		return nil, fmt.Errorf("no streamcountd binary given (-daemon); run through perfbench/run.sh")
	}
	segs := filepath.Join(dir, "segments")
	if err := os.MkdirAll(segs, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "streamcountd.log"))
	if err != nil {
		return nil, err
	}
	w := &addrWatcher{out: logf, found: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-segment-dir", segs)
	cmd.Stdout = logf
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", daemonProcs))
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting streamcountd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, done: make(chan error, 1)}
	go func() {
		d.done <- cmd.Wait()
		logf.Close()
	}()
	select {
	case addr := <-w.found:
		d.url = "http://" + addr
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("streamcountd exited during start-up: %v (log in %s)", err, logf.Name())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("streamcountd did not report its address within 30s")
	}
	if err := d.waitHealthy(30 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitHealthy(limit time.Duration) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("streamcountd at %s not healthy after %s", d.url, limit)
}

// stop sends SIGTERM, waits for the drain, and kills the process if it has
// not exited after 30 seconds. It returns once the process is gone.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("streamcountd did not drain within 30s; killed")
	}
}

// cpu returns the daemon's user+system CPU time so far, read from the
// process CPU-time clock (clock_getcpuclockid(3) semantics): nanosecond
// resolution, where /proc/<pid>/stat counts 10 ms ticks.
func (d *daemon) cpu() (time.Duration, error) {
	clock := ^int64(d.cmd.Process.Pid)<<3 | cpuClockSched
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("reading streamcountd CPU clock: %w", e)
	}
	return time.Duration(ts.Nano()), nil
}

// cpuClockSched selects the scheduler's runtime sum in a process CPU-time
// clock id (CPUCLOCK_SCHED in the Linux ABI).
const cpuClockSched = 2

// peakRSS returns the daemon's peak resident set size (VmHWM) in MiB.
func (d *daemon) peakRSS() (float64, error) { return d.status("VmHWM:") }

// status reads one kB-valued field of /proc/<pid>/status, in MiB.
func (d *daemon) status(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// diskBytes is the size of the daemon's segment directory.
func diskBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// addrWatcher copies the daemon's log and reports the address from its
// "listening on" line.
type addrWatcher struct {
	mu    sync.Mutex
	out   *os.File
	buf   []byte
	found chan string
	seen  bool
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.seen {
		w.buf = append(w.buf, p...)
		if m := listenRE.FindSubmatch(w.buf); m != nil {
			w.seen = true
			w.found <- string(m[1])
			w.buf = nil
		}
	}
	return w.out.Write(p)
}

// withTimeout is context.WithTimeout from the background context, for
// operations that must not hang a run.
func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
