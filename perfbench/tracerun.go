package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/nvsim"
	"repro/internal/query"
	"repro/internal/store"
)

// counterDelta reads the program's counters before and after one traced
// operation.
type counterDelta struct {
	st                       *store.Store
	hits, misses, memoMisses int64
}

func startCounters(st *store.Store) counterDelta {
	h, m := st.Stats()
	_, mm := nvsim.MemoStats()
	return counterDelta{st, h, m, mm}
}

// stop fills the counter figures of a traced round.
func (c counterDelta) stop(into map[string]float64) {
	h, m := c.st.Stats()
	_, mm := nvsim.MemoStats()
	into["nvsim.characterizations_per_op"] = float64(mm - c.memoMisses)
	into["nvsim.memo_entries"] = float64(nvsim.MemoLen())
	if n := h - c.hits + m - c.misses; n > 0 {
		into["store.hit_ratio"] = float64(h-c.hits) / float64(n)
	}
}

// writes records which store files an untraced operation replaced.
func writes(into map[string]float64, before, after map[string]fileState) {
	into["store.points_written_per_op"] = float64(rewritten(before, after, "points"))
	into["store.manifest_writes_per_op"] = float64(rewritten(before, after, "studies"))
	into["store.memo_snapshot_mb"] = mb(census(after).memoBytes)
}

// allocs measures fn's heap allocation and GC cycles.
func allocs(into map[string]float64, fn func() error) error {
	a0, g0 := runtimeCounters()
	err := fn()
	a1, g1 := runtimeCounters()
	into["runtime.alloc_mb_per_op"] += mb(int64(a1 - a0))
	into["runtime.gc_cycles_per_op"] += float64(g1 - g0)
	return err
}

// alternate orders a round's untraced and traced call sequences, swapping
// them every other round so neither always runs second.
func alternate(round int, plain, traced func() error) []func() error {
	if round%2 == 1 {
		return []func() error{traced, plain}
	}
	return []func() error{plain, traced}
}

// sameBytes checks the call sequences rendered what the service rendered.
func sameBytes(what string, got []bytes.Buffer, want [][]byte) error {
	for i := range want {
		if !bytes.Equal(got[i].Bytes(), want[i]) {
			return fmt.Errorf("%s: output %d differs from the untraced operation's", what, i)
		}
	}
	return nil
}

// coldGridTrace traces the cold POST of the grid.
func (r *runner) coldGridTrace() error {
	h := newHTTPHarness()
	defer h.close()
	cells, err := fetchCells(h)
	if err != nil {
		return err
	}
	rep := &traceReport{tr: newTracer()}
	var httpBody bytes.Buffer
	out := make([]bytes.Buffer, 1)
	var ref []byte
	r.startClock()
	for first := true; first || r.more(); first = false {
		t := traceRound{counters: map[string]float64{}}
		srv, st, fsys, err := r.freshServer(h, nil)
		if err != nil {
			return err
		}
		settle()
		var ex exchange
		err = allocs(t.counters, func() (err error) {
			ex, err = h.do("POST", studiesPath, r.in.fullJSON, &httpBody)
			return err
		})
		srv.Close()
		r.attempted++
		if err != nil || ex.status != 200 || r.storeHealth(store.HealthStats{}, st.Health()) {
			r.failed++
			continue
		}
		t.untraced = ex.total
		if ref == nil {
			body, err := parseNDJSON(httpBody.Bytes())
			if err == nil {
				err = checkStudy(body, r.in.full, cells)
			}
			if err != nil {
				r.reject(err)
				break
			}
			ref = bytes.Clone(httpBody.Bytes())
		} else if !bytes.Equal(httpBody.Bytes(), ref) {
			r.reject(fmt.Errorf("cold POST differs from the checked reference body"))
			break
		}
		writes(t.counters, nil, fsys.snapshot(memStoreDir))

		// The same operation as calls, untraced and traced, each on a fresh
		// store with an empty memo.
		fresh := func() (*store.Store, error) {
			out[0].Reset()
			nvsim.ResetMemo()
			st, _, err := openMemStore(rep.tr)
			settle()
			return st, err
		}
		plain := func() error {
			st, err := fresh()
			if err != nil {
				return err
			}
			t0 := time.Now()
			err = studyCalls(nil, r.in.fullJSON, st, false, &out[0])
			t.plain = time.Since(t0)
			return err
		}
		traced := func() error {
			st, err := fresh()
			if err != nil {
				return err
			}
			c := startCounters(st)
			t.ot, t.traced, err = rep.traced(func() error {
				rep.tr.begin("op")
				defer rep.tr.end()
				return studyCalls(rep.tr, r.in.fullJSON, st, false, &out[0])
			})
			c.stop(t.counters)
			t.counters["sweep.bytes_per_op"] = float64(out[0].Len())
			return err
		}
		for _, seq := range alternate(len(rep.rounds), plain, traced) {
			r.attempted++
			err := seq()
			if err == nil {
				err = sameBytes("cold call sequence", out, [][]byte{ref})
			}
			if err != nil {
				r.reject(err)
				break
			}
		}
		if r.wrong != nil {
			break
		}
		rep.rounds = append(rep.rounds, t)
	}
	return r.finishTrace(rep, true)
}

// sessionCalls is one analyst session as public calls.
func sessionCalls(tr *tracer, ws *warmServer, ix *query.Index, in inputs, s session, out []bytes.Buffer) error {
	for i := range out {
		out[i].Reset()
	}
	if err := studyCalls(tr, in.studyJSON[s.study], ws.st, false, &out[0]); err != nil {
		return err
	}
	if err := replayCalls(tr, ix, ws.fps[s.study], &out[1]); err != nil {
		return err
	}
	f := s.filter
	reqs := []struct {
		kind string
		req  query.Request
	}{
		{"query.topk", query.Request{Sort: s.topk.sortBy, Top: s.topk.top}},
		{"query.filter", query.Request{Technology: f.tech, Max: map[string]float64{f.maxOf: f.maxVal}, Sort: f.sortBy, Desc: f.desc}},
		{"query.frontier", query.Request{Frontier: s.frontier}},
	}
	for i, q := range reqs {
		if err := queryCalls(tr, ix, q.kind, q.req, &out[2+i]); err != nil {
			return err
		}
	}
	return nil
}

// warmMixedTrace traces the analyst session.
func (r *runner) warmMixedTrace() error {
	h := newHTTPHarness()
	defer h.close()
	cells, err := fetchCells(h)
	if err != nil {
		return err
	}
	rep := &traceReport{tr: newTracer()}
	ws, err := r.newWarmServer(h, rep.tr)
	if err != nil {
		return err
	}
	defer ws.srv.Close()
	if err := ws.index(r.in, cells); err != nil {
		r.reject(err)
		return nil
	}
	ix := query.New(ws.st)
	ix.Refresh()
	var httpOut sessionBodies
	out := make([]bytes.Buffer, len(httpOut))
	want := make([][]byte, len(httpOut))
	r.startClock()
	for first := true; first || r.more(); first = false {
		t := traceRound{counters: map[string]float64{}}
		s := r.newSession(ws)
		before := ws.fsys.snapshot(memStoreDir)
		var lat time.Duration
		healthBefore := ws.st.Health()
		err = allocs(t.counters, func() (err error) {
			lat, _, err = ws.runSession(s, r.in, &httpOut)
			return err
		})
		r.attempted++
		if err != nil || r.storeHealth(healthBefore, ws.st.Health()) {
			r.failed++
			continue
		}
		t.untraced = lat
		if _, err := ws.checkSession(s, &httpOut); err != nil {
			r.reject(err)
			break
		}
		writes(t.counters, before, ws.fsys.snapshot(memStoreDir))
		for i := range httpOut {
			want[i] = httpOut[i].Bytes()
		}

		plain := func() error {
			t0 := time.Now()
			err := sessionCalls(nil, ws, ix, r.in, s, out)
			t.plain = time.Since(t0)
			return err
		}
		traced := func() (err error) {
			c := startCounters(ws.st)
			t.ot, t.traced, err = rep.traced(func() error {
				rep.tr.begin("op")
				defer rep.tr.end()
				return sessionCalls(rep.tr, ws, ix, r.in, s, out)
			})
			c.stop(t.counters)
			return err
		}
		for _, seq := range alternate(len(rep.rounds), plain, traced) {
			r.attempted++
			err := seq()
			if err == nil {
				err = sameBytes("session call sequence", out, want)
			}
			if err != nil {
				r.reject(err)
				break
			}
		}
		if r.wrong != nil {
			break
		}
		for i := range out {
			t.counters["sweep.bytes_per_op"] += float64(out[i].Len())
		}
		t.counters["query.rows_indexed"] = float64(ix.Stats().Rows)
		rep.rounds = append(rep.rounds, t)
	}
	return r.finishTrace(rep, true)
}

// cliResult is what one cli-store call sequence did.
type cliResult struct {
	wall         time.Duration // both parts, process-state resets excluded
	memoMisses   int64
	memoEntries  int // after `run`, whose store.Open restored the snapshot
	hits, misses int64
	ix           *query.Index
}

// cliCalls is one cli-store operation as public calls: `run -store` and
// then `query -frontier`, each starting from the empty memo of a new
// process. counters, when non-nil, receives both parts' allocations.
func cliCalls(tr *tracer, dir string, raw []byte, front []string, out []bytes.Buffer, counters map[string]float64) (cliResult, error) {
	var res cliResult
	parts := []struct {
		root string
		body func(st *store.Store) error
	}{
		{"op.run", func(st *store.Store) error { return studyCalls(tr, raw, st, true, &out[0]) }},
		{"op.query", func(st *store.Store) error {
			res.ix = query.New(st)
			return queryCalls(tr, res.ix, "query.frontier", query.Request{Frontier: front}, &out[1])
		}},
	}
	for i, p := range parts {
		out[i].Reset()
		nvsim.ResetMemo()
		settle()
		_, m0 := nvsim.MemoStats()
		var st *store.Store
		run := func() (err error) {
			tr.begin(p.root)
			defer tr.end()
			tr.begin("store.open")
			st, err = store.Open(dir)
			tr.end()
			if err != nil {
				return err
			}
			return p.body(st)
		}
		t0 := time.Now()
		var err error
		if counters != nil {
			err = allocs(counters, run)
		} else {
			err = run()
		}
		res.wall += time.Since(t0)
		if err != nil {
			return res, err
		}
		_, m1 := nvsim.MemoStats()
		res.memoMisses += m1 - m0
		h, m := st.Stats()
		res.hits, res.misses = res.hits+h, res.misses+m
		if i == 0 {
			res.memoEntries = nvsim.MemoLen()
		}
	}
	return res, nil
}

// cliStoreTrace traces the cli-store operation.
func (r *runner) cliStoreTrace() error {
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
	var cliOut [2]bytes.Buffer
	chunk := make([]byte, 64<<10)
	dir := r.newStoreDir()
	if c := runChild(&cliOut[0], chunk, r.o.cli, "run", "-store", dir, "-format", "ndjson", cfgPath); c.err != nil {
		return fmt.Errorf("set-up run: %w", c.err)
	}
	rep := &traceReport{tr: newTracer()}
	out := make([]bytes.Buffer, 2)
	r.startClock()
	for first := true; first || r.more(); first = false {
		t := traceRound{counters: map[string]float64{}}
		before, err := storeFiles(dir)
		if err != nil {
			return err
		}
		var op cliOp
		if err := r.held(dir, func() error { op = r.runCLIOp(cfgPath, dir, &cliOut, chunk); return nil }); err != nil {
			return err
		}
		r.attempted++
		if op.run.err != nil || op.query.err != nil {
			r.failed++
			continue
		}
		t.untraced = op.run.total + op.query.total
		if err := checkCLIOp(op, &cliOut, ref, refRows); err != nil {
			r.reject(err)
			break
		}
		after, err := storeFiles(dir)
		if err != nil {
			return err
		}
		writes(t.counters, before, after)
		want := [][]byte{cliOut[0].Bytes(), cliOut[1].Bytes()}

		var res cliResult
		plain := func() error {
			p, err := cliCalls(nil, dir, r.in.fullJSON, op.front, out, t.counters)
			t.plain = p.wall
			return err
		}
		traced := func() (err error) {
			t.ot, t.traced, err = rep.traced(func() (err error) {
				res, err = cliCalls(rep.tr, dir, r.in.fullJSON, op.front, out, nil)
				return err
			})
			return err
		}
		for _, seq := range alternate(len(rep.rounds), plain, traced) {
			r.attempted++
			err := r.held(dir, seq)
			if err == nil {
				err = sameBytes("cli call sequence", out, want)
			}
			if err != nil {
				r.reject(err)
				break
			}
		}
		if r.wrong != nil {
			break
		}
		t.counters["nvsim.characterizations_per_op"] = float64(res.memoMisses)
		t.counters["nvsim.memo_entries"] = float64(res.memoEntries)
		t.counters["store.hit_ratio"] = float64(res.hits) / float64(max(res.hits+res.misses, 1))
		t.counters["sweep.bytes_per_op"] = float64(out[0].Len() + out[1].Len())
		t.counters["query.rows_indexed"] = float64(res.ix.Stats().Rows)
		rep.rounds = append(rep.rounds, t)
	}
	return r.finishTrace(rep, false)
}
