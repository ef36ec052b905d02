package main

import (
	"bytes"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/nvsim"
	"repro/internal/server"
)

// studyBody renders warm study 0 (64 configs) through the real service.
func studyBody(t *testing.T) (inputs, *ndjson, map[string]cellInfo) {
	t.Helper()
	in := makeInputs(7)
	nvsim.ResetMemo()
	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	h := &httpHarness{ts: ts, client: ts.Client(), chunk: make([]byte, 64<<10)}
	h.serve(srv.Handler())
	var buf bytes.Buffer
	ex, err := h.do("POST", studiesPath, in.studyJSON[0], &buf)
	if err != nil || ex.status != 200 {
		t.Fatalf("POST: status %d: %v", ex.status, err)
	}
	b, err := parseNDJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cells, err := fetchCells(h)
	if err != nil {
		t.Fatal(err)
	}
	return in, b, cells
}

func TestOraclesAcceptServiceOutput(t *testing.T) {
	in, b, cells := studyBody(t)
	if err := checkStudy(b, in.studies[0], cells); err != nil {
		t.Fatal(err)
	}
}

// TestOraclesRejectPerturbedRows perturbs one row (or the trailer) beyond
// each oracle's tolerance and expects that oracle to reject it; a
// perturbation inside the tolerance must still pass.
func TestOraclesRejectPerturbedRows(t *testing.T) {
	in, b, cells := studyBody(t)
	g := in.studies[0]
	scale := func(f *num, by float64) { *f = num(float64(*f) * by) }
	cases := []struct {
		name    string
		perturb func(rows []row, f *frontier) []row
		pass    bool
	}{
		{"row dropped", func(rows []row, _ *frontier) []row { return rows[1:] }, false},
		{"row repeated", func(rows []row, _ *frontier) []row { rows[1] = rows[0]; return rows }, false},
		{"capacity off grid", func(rows []row, _ *frontier) []row { rows[3].CapacityBytes++; return rows }, false},
		{"dynamic power +1e-6", func(rows []row, _ *frontier) []row { scale(&rows[5].DynamicPowerMW, 1+1e-6); return rows }, false},
		{"dynamic power +1e-12", func(rows []row, _ *frontier) []row { scale(&rows[5].DynamicPowerMW, 1+1e-12); return rows }, true},
		{"mem time -1e-6", func(rows []row, _ *frontier) []row { scale(&rows[9].MemTimePerSec, 1-1e-6); return rows }, false},
		{"total below dynamic+leakage", func(rows []row, _ *frontier) []row {
			rows[2].TotalPowerMW = rows[2].DynamicPowerMW + rows[2].LeakagePowerMW*(1-1e-6)
			return rows
		}, false},
		{"area below raw cells", func(rows []row, _ *frontier) []row {
			r := &rows[4]
			c := cells[r.Cell]
			f := c.NodeNM * 1e-6
			r.AreaMM2 = num(float64(r.CapacityBytes) * 8 / float64(r.BitsPerCell) * c.AreaF2 * f * f * (1 - 1e-6))
			return rows
		}, false},
		{"frontier point dropped", func(rows []row, f *frontier) []row { f.Points = f.Points[1:]; return rows }, false},
		{"dominated point added", func(rows []row, f *frontier) []row {
			on := map[int]bool{}
			for _, p := range f.Points {
				on[p] = true
			}
			for i := range rows {
				if !on[i] {
					f.Points = append(f.Points, i)
					break
				}
			}
			slices.Sort(f.Points)
			return rows
		}, false},
	}
	for _, c := range cases {
		rows := append([]row(nil), b.rows...)
		f := &frontier{Metrics: b.frontier.Metrics, Points: append([]int(nil), b.frontier.Points...)}
		rows = c.perturb(rows, f)
		err := checkStudy(&ndjson{rows: rows, frontier: f}, g, cells)
		if c.pass && err != nil {
			t.Errorf("%s: rejected inside tolerance: %v", c.name, err)
		}
		if !c.pass && err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestQueryOracleRejectsWrongOrder(t *testing.T) {
	_, b, _ := studyBody(t)
	q := rowQuery{tech: "RRAM", maxOf: "total_power_mw", maxVal: math.Inf(1), sortBy: "mem_time_per_sec", top: 12}
	want, err := q.answer(b.rows)
	if err != nil || len(want) != 12 {
		t.Fatalf("brute force: %d rows, %v", len(want), err)
	}
	if err := checkQuery(want, q, b.rows); err != nil {
		t.Fatal(err)
	}
	swapped := append([]row(nil), want...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if checkQuery(swapped, q, b.rows) == nil {
		t.Error("swapped rows accepted")
	}
	if checkQuery(want[:11], q, b.rows) == nil {
		t.Error("missing row accepted")
	}
	changed := append([]row(nil), want...)
	changed[3].ReadEnergyPJ++
	if checkQuery(changed, q, b.rows) == nil {
		t.Error("changed row accepted")
	}
}

// TestPerturbedBodyFailsTheRun checks the path a perturbed response takes:
// one changed digit in a service body fails the oracles, and a run with a
// failed check prints correct=false and exits non-zero.
func TestPerturbedBodyFailsTheRun(t *testing.T) {
	in, b, cells := studyBody(t)
	body := bytes.Clone(b.rowBytes)
	i := bytes.Index(body, []byte(`"dynamic_power_mw":`)) + len(`"dynamic_power_mw":`) + 2
	for body[i] < '0' || body[i] > '9' {
		i++
	}
	if body[i] == '9' {
		body[i] = '8'
	} else {
		body[i]++
	}
	p, err := parseNDJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	p.frontier = b.frontier
	err = checkStudy(p, in.studies[0], cells)
	if err == nil {
		t.Fatal("perturbed body accepted")
	}
	r := &runner{attempted: 1}
	r.reject(err)
	var out bytes.Buffer
	if code := finish(r, &out); code == 0 || !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("exit %d, line %s", code, out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, _ := tail(xs); v != 40 {
		t.Errorf("tail of 1..50 is %v, want 40 (10 samples beyond)", v)
	}
	if v, _ := tail(xs[:20]); v != 20 {
		t.Errorf("tail of 20 samples is %v, want the largest", v)
	}
}

func TestMemFSBacksAStore(t *testing.T) {
	fsys := newMemFS()
	if err := fsys.MkdirAll("store/points/ab"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFileAtomic("store/points/ab/x.gob", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFileAtomic("store/missing/y.gob", nil); err == nil {
		t.Error("write into a missing directory succeeded")
	}
	if _, err := fsys.ReadFile("store/nope"); err == nil || !strings.Contains(err.Error(), "not exist") {
		t.Errorf("missing file: %v", err)
	}
	before := fsys.snapshot("store")
	if err := fsys.WriteFileAtomic("store/points/ab/x.gob", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if n := rewritten(before, fsys.snapshot("store"), "points"); n != 1 {
		t.Errorf("rewrite counted %d times", n)
	}
	ents, _ := fsys.ReadDir("store/points")
	if len(ents) != 1 || !ents[0].IsDir() || ents[0].Name() != "ab" {
		t.Errorf("ReadDir: %v", ents)
	}
}
