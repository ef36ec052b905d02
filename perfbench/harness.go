package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/nvsim"
	"repro/internal/server"
	"repro/internal/store"
)

// runner holds one run's inputs and accumulates its measurements.
type runner struct {
	o        options
	work     string
	rng      *rand.Rand
	in       inputs
	deadline time.Time

	attempted, failed int
	wrong             error // first output-check failure
	metrics           map[string]metric

	// End-to-end samples, one per operation.
	latency, firstRow []float64 // ms
	rows              int
	timed             time.Duration
	setup             []float64 // s, one per set-up repetition
	stores            int       // fresh store directories made so far
	health            store.HealthStats
}

// storeHealth adds one store's self-healing counters to the run's and
// reports whether they show lost durability: an I/O error past retries, a
// quarantined record or memo snapshot, or a store degraded to memory.
func (r *runner) storeHealth(before, after store.HealthStats) (lost bool) {
	r.health.IOErrors += after.IOErrors - before.IOErrors
	r.health.Retries += after.Retries - before.Retries
	r.health.Quarantined += after.Quarantined - before.Quarantined
	r.health.MemoDiscards += after.MemoDiscards - before.MemoDiscards
	r.health.Degraded = r.health.Degraded || after.Degraded
	return after.IOErrors > before.IOErrors || after.Quarantined > before.Quarantined ||
		after.MemoDiscards > before.MemoDiscards || after.Degraded
}

// reject records an output-check failure; the run then ends.
func (r *runner) reject(err error) {
	if r.wrong == nil {
		r.wrong = err
	}
}

// startClock starts the measured --seconds once set-up is done.
func (r *runner) startClock() { r.deadline = time.Now().Add(time.Duration(r.o.seconds) * time.Second) }

// more reports whether the timed loop should start another operation.
func (r *runner) more() bool { return r.wrong == nil && time.Now().Before(r.deadline) }

// record adds one completed operation's samples.
func (r *runner) record(lat, first time.Duration, rows int) {
	r.latency = append(r.latency, ms(lat))
	r.firstRow = append(r.firstRow, ms(first))
	r.rows += rows
	r.timed += lat
}

// endToEnd fills the end-to-end metrics from the recorded samples.
func (r *runner) endToEnd(peakRSSMB, storeMB float64) {
	t, pct := tail(r.latency)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops (%d failed), p50 %.2f ms, tail p%.0f %.2f ms, first row p50 %.2f ms\n",
		r.o.workload, r.attempted, r.failed, median(r.latency), pct, t, median(r.firstRow))
	r.metrics = map[string]metric{
		"setup_s":          {median(r.setup), "s"},
		"latency_p50_ms":   {median(r.latency), "ms"},
		"latency_tail_ms":  {t, "ms"},
		"first_row_p50_ms": {median(r.firstRow), "ms"},
		"rows_per_s":       {float64(r.rows) / r.timed.Seconds(), "1/s"},
		"peak_rss_mb":      {peakRSSMB, "MB"},
		"store_mb":         {storeMB, "MB"},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// keepDir holds the links hold makes.
func (r *runner) keepDir() string { return filepath.Join(r.work, "held") }

// newStoreDir names a fresh scratch store directory.
func (r *runner) newStoreDir() string {
	r.stores++
	return filepath.Join(r.work, fmt.Sprintf("store-%04d", r.stores))
}

// memStoreDir is where a store lives inside its memFS.
const memStoreDir = "store"

// openMemStore opens an empty store on a fresh memFS.
func openMemStore(tr *tracer) (*store.Store, *memFS, error) {
	fsys := newMemFS()
	tr.begin("store.open")
	st, err := store.OpenFS(memStoreDir, fsys)
	tr.end()
	return st, fsys, err
}

// freshServer opens an empty store, empties the process-global memo, and
// starts a default-option study server on it.
func (r *runner) freshServer(h *httpHarness, tr *tracer) (*server.Server, *store.Store, *memFS, error) {
	nvsim.ResetMemo()
	st, fsys, err := openMemStore(tr)
	if err != nil {
		return nil, nil, nil, err
	}
	srv := server.New(server.Options{Store: st})
	h.serve(srv.Handler())
	return srv, st, fsys, nil
}

// httpHarness is the single client and connection every HTTP workload
// uses. The server behind the listener can be swapped between operations,
// so a fresh server per cold operation keeps the same connection.
type httpHarness struct {
	ts      *httptest.Server
	handler atomic.Pointer[http.Handler]
	client  *http.Client
	chunk   []byte
}

func newHTTPHarness() *httpHarness {
	h := &httpHarness{chunk: make([]byte, 64<<10)}
	h.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		(*h.handler.Load()).ServeHTTP(w, req)
	}))
	h.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
	return h
}

func (h *httpHarness) serve(hd http.Handler) { h.handler.Store(&hd) }

func (h *httpHarness) close() {
	h.client.CloseIdleConnections()
	h.ts.Close()
}

// exchange is one timed HTTP request.
type exchange struct {
	status          int
	firstRow, total time.Duration
}

// do sends one request and reads the whole body into out, timing the
// first complete line and the end of the body from the moment it is sent.
func (h *httpHarness) do(method, path string, body []byte, out *bytes.Buffer) (exchange, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		return exchange{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	out.Reset()
	start := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return exchange{}, err
	}
	defer resp.Body.Close()
	ex := exchange{status: resp.StatusCode}
	ex.firstRow, err = readTimed(resp.Body, out, h.chunk, start)
	ex.total = time.Since(start)
	return ex, err
}

// readTimed copies src into out and returns when the first newline
// arrived, measured from start.
func readTimed(src io.Reader, out *bytes.Buffer, chunk []byte, start time.Time) (time.Duration, error) {
	var first time.Duration
	for {
		n, err := src.Read(chunk)
		if n > 0 {
			if first == 0 && bytes.IndexByte(chunk[:n], '\n') >= 0 {
				first = time.Since(start)
			}
			out.Write(chunk[:n])
		}
		if err == io.EOF {
			return first, nil
		}
		if err != nil {
			return first, err
		}
	}
}

// child is one finished subprocess.
type child struct {
	firstRow, total time.Duration
	peakRSSMB       float64
	err             error
}

// runChild runs one CLI subprocess, timing its first stdout line and its
// exit, and collecting its peak RSS.
func runChild(out *bytes.Buffer, chunk []byte, bin string, args ...string) child {
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return child{err: err}
	}
	out.Reset()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return child{err: err}
	}
	first, rerr := readTimed(pipe, out, chunk, start)
	werr := cmd.Wait()
	c := child{firstRow: first, total: time.Since(start)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.peakRSSMB = float64(ru.Maxrss) / 1024 // kB on Linux
	}
	switch {
	case werr != nil:
		c.err = fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), args[0], werr, strings.TrimSpace(stderr.String()))
	case rerr != nil:
		c.err = rerr
	case stderr.Len() > 0:
		// The CLI warns, and exits 0, when the store fails to persist.
		c.err = fmt.Errorf("%s %s: %s", filepath.Base(bin), args[0], strings.TrimSpace(stderr.String()))
	}
	return c
}

// peakRSSMB reads this process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// fileState identifies one stored file's content version: an atomic
// rewrite gives the path a new inode.
type fileState struct {
	ino  uint64
	size int64
}

// storeFiles lists the regular files under a store directory.
func storeFiles(dir string) (map[string]fileState, error) {
	files := map[string]fileState{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		st := fileState{size: info.Size()}
		if sys, ok := info.Sys().(*syscall.Stat_t); ok {
			st.ino = sys.Ino
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel] = st
		return nil
	})
	return files, err
}

// storeCensus summarizes a store directory.
type storeCensus struct {
	points, studies int
	bytes           int64
	memoBytes       int64
}

func census(files map[string]fileState) storeCensus {
	var c storeCensus
	for name, f := range files {
		c.bytes += f.size
		switch {
		case strings.HasPrefix(name, "points"+string(filepath.Separator)):
			c.points++
		case strings.HasPrefix(name, "studies"+string(filepath.Separator)):
			c.studies++
		case name == "memo.gob":
			c.memoBytes = f.size
		}
	}
	return c
}

// rewritten counts files under prefix that are new or were replaced.
func rewritten(before, after map[string]fileState, prefix string) int {
	n := 0
	for name, f := range after {
		if strings.HasPrefix(name, prefix) && before[name] != f {
			n++
		}
	}
	return n
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// replaced lists the files a warm `run -store` replaces: the memo
// snapshot and the study manifests.
func replaced(dir string) []string {
	files, _ := filepath.Glob(filepath.Join(dir, "studies", "*.gob"))
	if _, err := os.Stat(filepath.Join(dir, "memo.gob")); err == nil {
		files = append(files, filepath.Join(dir, "memo.gob"))
	}
	return files
}

// hold hard-links the files an operation will replace into keep, so the
// program's rename over them frees no disk blocks while it is timed.
func hold(dir, keep string) error {
	if err := os.MkdirAll(keep, 0o755); err != nil {
		return err
	}
	for i, f := range replaced(dir) {
		if err := os.Link(f, filepath.Join(keep, strconv.Itoa(i))); err != nil {
			return err
		}
	}
	return nil
}

// held runs fn between hold and release.
func (r *runner) held(dir string, fn func() error) error {
	if err := hold(dir, r.keepDir()); err != nil {
		return err
	}
	err := fn()
	if rerr := release(dir, r.keepDir()); err == nil {
		err = rerr
	}
	return err
}

// release writes the store's new files back to disk, then drops the held
// links and commits their removal, so neither the writeback nor the freeing
// of the old files falls into the next timed operation.
func release(dir, keep string) error {
	for _, p := range append(replaced(dir), dir, filepath.Join(dir, "studies")) {
		if err := syncPath(p); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(keep); err != nil {
		return err
	}
	return syncPath(filepath.Dir(keep))
}

// syncPath fsyncs a file or directory.
func syncPath(p string) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// removeScratch deletes the run's scratch stores once timing is over, then
// syncs the parent directory so the deletions are committed before the
// process exits instead of during the next run's timing.
func removeScratch(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return syncPath(filepath.Dir(dir))
}

// settle collects the previous operation's garbage before the next one is
// timed, so each operation starts from the same heap.
func settle() { runtime.GC() }
