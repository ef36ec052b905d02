package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/nvsim"
	"repro/internal/server"
	"repro/internal/store"
)

// Set-up repetitions per run; setup_s is their median.
const (
	coldSetupReps = 5
	warmSetupReps = 7
	cliSetupReps  = 3
)

// fetchCells reads the cell table the area oracle needs from GET /v1/cells.
func fetchCells(h *httpHarness) (map[string]cellInfo, error) {
	srv := server.New(server.Options{})
	defer srv.Close()
	h.serve(srv.Handler())
	var buf bytes.Buffer
	ex, err := h.do("GET", "/v1/cells", nil, &buf)
	if err != nil || ex.status != 200 {
		return nil, fmt.Errorf("GET /v1/cells: status %d: %v", ex.status, err)
	}
	var list []cellInfo
	if err := json.Unmarshal(buf.Bytes(), &list); err != nil {
		return nil, fmt.Errorf("GET /v1/cells: %w", err)
	}
	cells := make(map[string]cellInfo, len(list))
	for _, c := range list {
		cells[c.Name] = c
	}
	return cells, nil
}

const studiesPath = "/v1/studies?format=ndjson"

// coldStudy runs one cold POST of the grid on a fresh server and store,
// returning the store's files. A 200 whose store lost durability is an
// error too.
func (r *runner) coldStudy(h *httpHarness, out *bytes.Buffer) (exchange, *memFS, error) {
	srv, st, fsys, err := r.freshServer(h, nil)
	if err != nil {
		return exchange{}, nil, err
	}
	defer srv.Close()
	settle()
	ex, err := h.do("POST", studiesPath, r.in.fullJSON, out)
	switch {
	case err == nil && ex.status != 200:
		err = fmt.Errorf("cold POST: status %d", ex.status)
	case err == nil && r.storeHealth(store.HealthStats{}, st.Health()):
		err = fmt.Errorf("cold POST: store lost durability: %+v", st.Health())
	}
	return ex, fsys, err
}

// checkColdStore verifies a cold operation left the study durable: one
// point file per config and one manifest. It returns the store's size.
func checkColdStore(fsys *memFS) (int64, error) {
	c := census(fsys.snapshot(memStoreDir))
	if c.points != len(gridTechs)*len(gridCaps)*len(gridWords) || c.studies != 1 {
		return 0, fmt.Errorf("cold store holds %d points and %d manifests", c.points, c.studies)
	}
	return c.bytes, nil
}

// coldGrid: each operation is a cold POST of the 512-config grid to a
// fresh server with a fresh disk store and an empty memo.
func (r *runner) coldGrid() error {
	h := newHTTPHarness()
	defer h.close()
	cells, err := fetchCells(h)
	if err != nil {
		return err
	}
	var ref, buf bytes.Buffer
	for rep := 0; rep < coldSetupReps; rep++ {
		t0 := time.Now()
		if _, _, err := r.coldStudy(h, &buf); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if rep == 0 {
			ref.Write(buf.Bytes())
		}
	}
	body, err := parseNDJSON(ref.Bytes())
	if err == nil {
		err = checkStudy(body, r.in.full, cells)
	}
	if err != nil {
		r.reject(fmt.Errorf("cold study: %w", err))
		return nil
	}
	var storeBytes []float64
	r.startClock()
	for r.more() {
		ex, fsys, err := r.coldStudy(h, &buf)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
			continue
		}
		r.record(ex.total, ex.firstRow, len(body.rows))
		// Every cold run of one config must render the bytes the checked
		// reference rendered.
		if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			r.reject(fmt.Errorf("cold POST %d differs from the checked reference body", r.attempted))
			break
		}
		n, err := checkColdStore(fsys)
		if err != nil {
			r.reject(err)
			break
		}
		storeBytes = append(storeBytes, float64(n))
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.endToEnd(peak, mb(int64(median(storeBytes))))
	return nil
}

// warmServer is a server whose store holds the eight warm studies.
type warmServer struct {
	h      *httpHarness
	srv    *server.Server
	st     *store.Store
	fsys   *memFS
	bodies [][]byte // POST body of each study
	fps    []string // fingerprint of each study
	union  []row    // every stored row, in the query layer's study order
	unionB []byte   // the same rows' bytes
}

// newWarmServer starts a fresh server and fills its store with the warm
// studies, one cold POST each.
func (r *runner) newWarmServer(h *httpHarness, tr *tracer) (*warmServer, error) {
	srv, st, fsys, err := r.freshServer(h, tr)
	if err != nil {
		return nil, err
	}
	ws := &warmServer{h: h, srv: srv, st: st, fsys: fsys}
	var buf bytes.Buffer
	for i, cfg := range r.in.studyJSON {
		ex, err := h.do("POST", studiesPath, cfg, &buf)
		if err != nil || ex.status != 200 {
			srv.Close()
			return nil, fmt.Errorf("prefill study %d: status %d: %v", i, ex.status, err)
		}
		ws.bodies = append(ws.bodies, bytes.Clone(buf.Bytes()))
	}
	return ws, nil
}

// index checks the prefilled studies, records their fingerprints from
// GET /v1/studies, and assembles the union of their rows.
func (ws *warmServer) index(in inputs, cells map[string]cellInfo) error {
	var buf bytes.Buffer
	ex, err := ws.h.do("GET", "/v1/studies", nil, &buf)
	if err != nil || ex.status != 200 {
		return fmt.Errorf("GET /v1/studies: status %d: %v", ex.status, err)
	}
	var list []struct {
		Fingerprint string `json:"fingerprint"`
		Name        string `json:"name"`
		Complete    bool   `json:"complete"`
	}
	if err := json.Unmarshal(buf.Bytes(), &list); err != nil {
		return fmt.Errorf("GET /v1/studies: %w", err)
	}
	byName := map[string]string{}
	for _, s := range list {
		if s.Complete {
			byName[s.Name] = s.Fingerprint
		}
	}
	// The query layer orders studies by name; warmName sorts by index.
	for i, b := range ws.bodies {
		fp, ok := byName[warmName(i)]
		if !ok {
			return fmt.Errorf("study %s is not listed as complete", warmName(i))
		}
		ws.fps = append(ws.fps, fp)
		body, err := parseNDJSON(b)
		if err == nil {
			err = checkStudy(body, in.studies[i], cells)
		}
		if err != nil {
			return fmt.Errorf("study %s: %w", warmName(i), err)
		}
		ws.union = append(ws.union, body.rows...)
		ws.unionB = append(ws.unionB, body.rowBytes...)
	}
	return nil
}

// session is one analyst session's seeded choices.
type session struct {
	study                  int
	topk, filter           rowQuery
	frontier               []string
	topkQ, filterQ, frontQ string // GET /v1/query paths
}

func (r *runner) newSession(ws *warmServer) session {
	s := session{study: r.rng.Intn(warmStudies)}
	s.topk = rowQuery{sortBy: sortMetrics[r.rng.Intn(len(sortMetrics))], top: 10 + r.rng.Intn(21)}
	s.topkQ = fmt.Sprintf("/v1/query?format=ndjson&sort=%s&top=%d", s.topk.sortBy, s.topk.top)

	// The ceiling is the median of the metric over the chosen technology,
	// so every filter keeps about half of that technology's rows.
	f := rowQuery{tech: gridTechs[r.rng.Intn(len(gridTechs))],
		maxOf: filterMetrics[r.rng.Intn(len(filterMetrics))], sortBy: sortMetrics[r.rng.Intn(len(sortMetrics))],
		desc: r.rng.Intn(2) == 1}
	var vals []float64
	for i := range ws.union {
		if ws.union[i].Technology == f.tech {
			v, _ := metricOf(&ws.union[i], f.maxOf)
			vals = append(vals, v)
		}
	}
	f.maxVal = median(vals)
	s.filter = f
	order := "asc"
	if f.desc {
		order = "desc"
	}
	s.filterQ = "/v1/query?" + url.Values{"format": {"ndjson"}, "technology": {f.tech},
		"max_" + f.maxOf: {strconv.FormatFloat(f.maxVal, 'g', -1, 64)}, "sort": {f.sortBy}, "order": {order}}.Encode()

	s.frontier = pick2(r.rng, frontierMetrics)
	s.frontQ = "/v1/query?format=ndjson&frontier=" + s.frontier[0] + "," + s.frontier[1]
	return s
}

// sessionBodies are the five responses of one session.
type sessionBodies [5]bytes.Buffer

// runSession sends one session's five requests in order and returns the
// session latency and the time to the re-POST's first row.
func (ws *warmServer) runSession(s session, in inputs, out *sessionBodies) (lat, first time.Duration, err error) {
	reqs := []struct {
		method, path string
		body         []byte
	}{
		{"POST", studiesPath, in.studyJSON[s.study]},
		{"GET", "/v1/studies/" + ws.fps[s.study] + "?format=ndjson", nil},
		{"GET", s.topkQ, nil},
		{"GET", s.filterQ, nil},
		{"GET", s.frontQ, nil},
	}
	start := time.Now()
	for i, q := range reqs {
		ex, err := ws.h.do(q.method, q.path, q.body, &out[i])
		if err != nil || ex.status != 200 {
			return 0, 0, fmt.Errorf("%s %s: status %d: %v", q.method, q.path, ex.status, err)
		}
		if i == 0 {
			first = ex.firstRow
		}
	}
	return time.Since(start), first, nil
}

// checkSession verifies one session's responses and returns its row count.
func (ws *warmServer) checkSession(s session, out *sessionBodies) (int, error) {
	if !bytes.Equal(out[0].Bytes(), ws.bodies[s.study]) {
		return 0, fmt.Errorf("warm re-POST of %s differs from its stored body", warmName(s.study))
	}
	if !bytes.Equal(out[1].Bytes(), out[0].Bytes()) {
		return 0, fmt.Errorf("replay of %s differs from its POST body", warmName(s.study))
	}
	rows := 2 * len(ws.union) / warmStudies
	for i, q := range []rowQuery{s.topk, s.filter} {
		b, err := parseNDJSON(out[2+i].Bytes())
		if err == nil {
			err = checkQuery(b.rows, q, ws.union)
		}
		if err != nil {
			return 0, fmt.Errorf("query %d: %w", i, err)
		}
		rows += len(b.rows)
	}
	if err := checkFrontierBody(out[4].Bytes(), ws.unionB, ws.union, s.frontier); err != nil {
		return 0, fmt.Errorf("frontier query: %w", err)
	}
	return rows + len(ws.union), nil
}

// checkFrontierBody checks a frontier query over every stored row: its
// rows are the stored rows byte for byte, and its trailer passes the
// dominance scan.
func checkFrontierBody(b, wantRows []byte, rows []row, metrics []string) error {
	cut := bytes.LastIndexByte(b[:max(len(b)-1, 0)], '\n') + 1
	if !bytes.Equal(b[:cut], wantRows) {
		return fmt.Errorf("rows differ from the stored rows")
	}
	tr, err := parseNDJSON(b[cut:])
	if err != nil {
		return err
	}
	return checkFrontier(rows, tr.frontier, metrics)
}

// warmMixed: each operation is one analyst session against a server
// whose store holds eight studies.
func (r *runner) warmMixed() error {
	h := newHTTPHarness()
	defer h.close()
	cells, err := fetchCells(h)
	if err != nil {
		return err
	}
	var ws *warmServer
	for rep := 0; rep < warmSetupReps; rep++ {
		if ws != nil {
			ws.srv.Close()
		}
		t0 := time.Now()
		if ws, err = r.newWarmServer(h, nil); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	defer ws.srv.Close()
	if err := ws.index(r.in, cells); err != nil {
		r.reject(err)
		return nil
	}
	var out sessionBodies
	r.startClock()
	for r.more() {
		s := r.newSession(ws)
		_, missesBefore := nvsim.MemoStats()
		healthBefore := ws.st.Health()
		lat, first, err := ws.runSession(s, r.in, &out)
		r.attempted++
		if err == nil && r.storeHealth(healthBefore, ws.st.Health()) {
			err = fmt.Errorf("store lost durability: %+v", ws.st.Health())
		}
		if err != nil {
			r.failed++
			fmt.Fprintln(os.Stderr, "perfbench: session failed:", err)
			continue
		}
		if _, misses := nvsim.MemoStats(); misses != missesBefore {
			r.reject(fmt.Errorf("warm session characterized %d configs", misses-missesBefore))
			break
		}
		rows, err := ws.checkSession(s, &out)
		if err != nil {
			r.reject(err)
			break
		}
		r.record(lat, first, rows)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.endToEnd(peak, mb(census(ws.fsys.snapshot(memStoreDir)).bytes)/warmStudies)
	return nil
}

// cliSetup writes the grid config, fetches the oracle inputs, and renders
// the reference HTTP body for the same config on an in-process server.
func (r *runner) cliSetup() (cfgPath string, cells map[string]cellInfo, ref []byte, err error) {
	cfgPath = filepath.Join(r.work, "grid.json")
	if err := os.WriteFile(cfgPath, r.in.fullJSON, 0o644); err != nil {
		return "", nil, nil, err
	}
	h := newHTTPHarness()
	defer h.close()
	if cells, err = fetchCells(h); err != nil {
		return "", nil, nil, err
	}
	nvsim.ResetMemo()
	srv := server.New(server.Options{})
	defer srv.Close()
	h.serve(srv.Handler())
	var buf bytes.Buffer
	ex, err := h.do("POST", studiesPath, r.in.fullJSON, &buf)
	if err != nil || ex.status != 200 {
		return "", nil, nil, fmt.Errorf("reference POST: status %d: %v", ex.status, err)
	}
	nvsim.ResetMemo()
	settle()
	return cfgPath, cells, buf.Bytes(), nil
}

// cliOp is one cli-store operation: a warm `run -store` and a
// `query -frontier` on the same store.
type cliOp struct {
	run, query child
	front      []string
}

func (r *runner) runCLIOp(cfgPath, dir string, out *[2]bytes.Buffer, chunk []byte) cliOp {
	op := cliOp{front: pick2(r.rng, frontierMetrics)}
	op.run = runChild(&out[0], chunk, r.o.cli, "run", "-store", dir, "-format", "ndjson", cfgPath)
	if op.run.err == nil {
		op.query = runChild(&out[1], chunk, r.o.cli, "query", "-frontier",
			op.front[0]+","+op.front[1], "-format", "ndjson", dir)
	}
	return op
}

// checkCLIOp verifies a cli-store operation's two outputs against the
// checked reference body.
func checkCLIOp(op cliOp, out *[2]bytes.Buffer, ref []byte, refRows *ndjson) error {
	if !bytes.Equal(out[0].Bytes(), ref) {
		return fmt.Errorf("warm `run -store` stdout differs from the HTTP body for the same config")
	}
	if err := checkFrontierBody(out[1].Bytes(), refRows.rowBytes, refRows.rows, op.front); err != nil {
		return fmt.Errorf("`query -frontier`: %w", err)
	}
	return nil
}

// cliStore: each operation runs `nvmexplorer run -store` and
// `nvmexplorer query -frontier` against a store filled during set-up.
func (r *runner) cliStore() error {
	cfgPath, cells, ref, err := r.cliSetup()
	if err != nil {
		return err
	}
	refRows, err := parseNDJSON(ref)
	if err == nil {
		err = checkStudy(refRows, r.in.full, cells)
	}
	if err != nil {
		r.reject(fmt.Errorf("reference study: %w", err))
		return nil
	}
	var out [2]bytes.Buffer
	chunk := make([]byte, 64<<10)
	var dir string
	var peak float64
	for rep := 0; rep < cliSetupReps; rep++ {
		dir = r.newStoreDir()
		c := runChild(&out[0], chunk, r.o.cli, "run", "-store", dir, "-format", "ndjson", cfgPath)
		if c.err != nil {
			return fmt.Errorf("set-up run: %w", c.err)
		}
		r.setup = append(r.setup, c.total.Seconds())
		peak = math.Max(peak, c.peakRSSMB)
		if !bytes.Equal(out[0].Bytes(), ref) {
			r.reject(fmt.Errorf("cold `run -store` stdout differs from the HTTP body for the same config"))
			return nil
		}
		if err := release(dir, r.keepDir()); err != nil {
			return err
		}
	}
	r.startClock()
	for r.more() {
		before, err := storeFiles(dir)
		if err != nil {
			return err
		}
		var op cliOp
		if err := r.held(dir, func() error { op = r.runCLIOp(cfgPath, dir, &out, chunk); return nil }); err != nil {
			return err
		}
		r.attempted++
		if op.run.err != nil || op.query.err != nil {
			r.failed++
			fmt.Fprintln(os.Stderr, "perfbench: cli op failed:", op.run.err, op.query.err)
			continue
		}
		if err := checkCLIOp(op, &out, ref, refRows); err != nil {
			r.reject(err)
			break
		}
		after, err := storeFiles(dir)
		if err != nil {
			return err
		}
		if n := rewritten(before, after, "points"); n != 0 {
			r.reject(fmt.Errorf("warm `run -store` wrote %d point files, so it characterized", n))
			break
		}
		peak = math.Max(peak, math.Max(op.run.peakRSSMB, op.query.peakRSSMB))
		r.record(op.run.total+op.query.total, op.run.firstRow, 2*len(refRows.rows))
	}
	files, err := storeFiles(dir)
	if err != nil {
		return err
	}
	if err := checkCLIStore(dir); err != nil {
		r.reject(err)
	}
	r.endToEnd(peak, mb(census(files).bytes))
	return nil
}

// checkCLIStore scans the store the CLI kept with fsck: every record
// intact, all 512 points, one manifest and a memo snapshot.
func checkCLIStore(dir string) error {
	rep, err := store.Fsck(dir, false)
	if err != nil {
		return err
	}
	if !rep.Clean() || rep.PointsOK != len(gridTechs)*len(gridCaps)*len(gridWords) || rep.StudiesOK != 1 || !rep.MemoPresent {
		return fmt.Errorf("cli store after the run: %s", rep.Summary())
	}
	return nil
}
