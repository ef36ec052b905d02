package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/nvsim"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/sweep"
)

// The traced run. Each workload's operation is driven a second way: as the
// sequence of public calls the service (or the CLI) makes, with a span
// around every call into a layer. Spans live in memory and are written to
// a file when the run ends. Each round of the traced run does the
// operation three times — untraced through HTTP or the CLI, as the call
// sequence with spans off, and as the call sequence with spans on — and
// checks that all three render the same bytes.

// span is one timed call. Parent indexes the enclosing span (-1 for an
// operation root); Op is the traced operation (-1 outside operations).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans when on. A nil or off tracer records nothing, so
// the same call sequence runs untraced.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now(), op: -1} }

func (t *tracer) begin(name string) {
	if t == nil || !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Op: t.op, Name: name, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil || !t.on {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:n]
}

// opTrace is one traced operation reduced to layer figures.
type opTrace struct {
	wall   time.Duration            // summed root spans
	layers time.Duration            // summed self time of every layer span
	self   map[string]time.Duration // self time by span name
}

// summarize reduces the spans of operation op, which start at index from.
// A span's self time is its duration minus its children's; children of
// one span never overlap, since the sequence runs on one goroutine.
func (t *tracer) summarize(op, from int) opTrace {
	ot := opTrace{self: map[string]time.Duration{}}
	child := map[int]time.Duration{}
	for i := from; i < len(t.spans); i++ {
		if s := t.spans[i]; s.Op == op && s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.Op != op {
			continue
		}
		d := time.Duration(s.End - s.Start)
		if s.Parent < 0 {
			ot.wall += d
			continue
		}
		self := d - child[i]
		ot.self[s.Name] += self
		ot.layers += self
	}
	return ot
}

// runtimeCounters reads the allocation and GC-cycle totals.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// charKey is one unique characterization of a study, as the planner
// dedupes them.
type charKey struct {
	cell  cell.Definition
	cap   int64
	words int
}

// runCalls is core.Study.RunStream's two-phase plan as public calls: probe
// the store for every point, characterize each config a missing point
// needs, then evaluate and store the missing points in declaration order.
// The service hands store fills to a background goroutine; here they run
// inline so every span nests in the operation.
func runCalls(tr *tracer, s *core.Study, st *store.Store) (*core.Results, error) {
	if len(s.Targets) == 0 {
		s.Targets = []nvsim.OptTarget{nvsim.OptReadEDP}
	}
	tr.begin("core.space")
	specs, err := s.Space()
	tr.end()
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(specs))
	cached := make([]core.CachedPoint, len(specs))
	hit := make([]bool, len(specs))
	for i := range specs {
		keys[i] = s.PointKey(specs[i])
		tr.begin("store.get")
		cached[i], hit[i] = st.Get(keys[i])
		tr.end()
	}
	arrays := map[charKey][]nvsim.Result{}
	for i := range specs {
		sp := &specs[i]
		k := charKey{sp.Cell, sp.CapacityBytes, sp.WordBits}
		if _, done := arrays[k]; hit[i] || done {
			continue
		}
		cfg := nvsim.Config{Cell: sp.Cell, CapacityBytes: sp.CapacityBytes, WordBits: sp.WordBits,
			MaxAreaMM2: s.MaxAreaMM2, MaxReadLatencyNS: s.MaxReadLatencyNS}
		tr.begin("nvsim.characterize")
		a, errs, pruned := nvsim.PrefilterTargets(cfg, s.Targets)
		if !pruned {
			a, errs = nvsim.CharacterizeTargets(cfg, s.Targets)
		}
		tr.end()
		for _, e := range errs {
			if e != nil {
				return nil, fmt.Errorf("%s@%d: %v (the call sequence covers grids without skipped configs)",
					sp.Cell.Name, sp.CapacityBytes, e)
			}
		}
		arrays[k] = a
	}
	res := &core.Results{Study: s}
	for i := range specs {
		if hit[i] {
			res.Arrays = append(res.Arrays, cached[i].Arrays...)
			res.Metrics = append(res.Metrics, cached[i].Metrics...)
			res.Skipped = append(res.Skipped, cached[i].Skipped...)
			continue
		}
		sp := &specs[i]
		a := arrays[charKey{sp.Cell, sp.CapacityBytes, sp.WordBits}]
		opts := s.Options
		opts.WriteBuffer, opts.Fault = sp.WriteBuffer, sp.Fault
		aStart, mStart := len(res.Arrays), len(res.Metrics)
		tr.begin("eval.evaluate")
		for t := range s.Targets {
			res.Arrays = append(res.Arrays, a[t])
			if res.Metrics, err = eval.EvaluateBatch(a[t], s.Patterns, opts, res.Metrics); err != nil {
				break
			}
		}
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.begin("store.put")
		st.Put(keys[i], core.CachedPoint{Arrays: slices.Clone(res.Arrays[aStart:]), Metrics: slices.Clone(res.Metrics[mStart:])})
		tr.end()
	}
	return res, nil
}

// studyCalls is one study request as public calls: POST /v1/studies when
// cli is false, `nvmexplorer run -store` when it is true. The NDJSON body
// goes to w.
func studyCalls(tr *tracer, raw []byte, st *store.Store, cli bool, w *bytes.Buffer) error {
	tr.begin("sweep.parse_expand")
	cfg, err := sweep.Parse(bytes.NewReader(raw))
	var eff []byte
	var s *core.Study
	if err == nil {
		eff, err = json.Marshal(cfg)
	}
	if err == nil {
		cfg.Cache = st
		s, err = cfg.Study()
	}
	tr.end()
	if err != nil {
		return err
	}
	var fp string
	if !cli { // the service derives the ETag before running
		tr.begin("core.space")
		fp, err = s.Fingerprint()
		tr.end()
		if err != nil {
			return err
		}
	}
	tr.begin("core.run")
	res, err := runCalls(tr, s, st)
	tr.end()
	if err != nil {
		return err
	}
	if cli {
		tr.begin("store.save_memo")
		err = st.SaveMemo()
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("core.space")
		fp, err = s.Fingerprint()
		tr.end()
		if err != nil {
			return err
		}
	}
	tr.begin("core.pareto")
	_, err = res.SelectPareto(s.Pareto...)
	tr.end()
	if err != nil {
		return err
	}
	if !cli {
		if err := encodeCalls(tr, w, res); err != nil {
			return err
		}
	}
	tr.begin("core.space")
	specs, err := s.Space()
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("store.save_study")
	err = st.SaveStudy(store.StudyRecord{Fingerprint: fp, Name: s.Name, Config: eff, Points: len(specs)})
	tr.end()
	if err != nil {
		return err
	}
	if cli {
		return encodeCalls(tr, w, res)
	}
	return nil
}

func encodeCalls(tr *tracer, w *bytes.Buffer, res *core.Results) error {
	tr.begin("sweep.encode")
	defer tr.end()
	return sweep.WriteNDJSON(w, res)
}

// queryCalls is GET /v1/query (and `nvmexplorer query`) as public calls;
// kind names the query span.
func queryCalls(tr *tracer, ix *query.Index, kind string, req query.Request, w *bytes.Buffer) error {
	tr.begin("query.refresh")
	ix.Refresh()
	tr.end()
	tr.begin(kind)
	resp, err := ix.Query(req)
	tr.end()
	if err != nil {
		return err
	}
	return encodeCalls(tr, w, resp.Results)
}

// replayCalls is GET /v1/studies/{fp} as public calls.
func replayCalls(tr *tracer, ix *query.Index, fp string, w *bytes.Buffer) error {
	tr.begin("query.load")
	res, known, err := ix.Load(fp)
	tr.end()
	if !known || err != nil {
		return fmt.Errorf("replay %s: known %v: %v", fp, known, err)
	}
	tr.begin("core.pareto")
	err = res.EnsureFrontier()
	tr.end()
	if err != nil {
		return err
	}
	return encodeCalls(tr, w, res)
}

// traceRound collects one round's figures.
type traceRound struct {
	untraced, plain, traced time.Duration // operation wall times
	ot                      opTrace
	counters                map[string]float64
}

// traceReport accumulates rounds into the per-layer metrics.
type traceReport struct {
	tr     *tracer
	rounds []traceRound
	ops    int
}

// traced runs fn as traced operation number rep.ops and summarizes it.
func (rep *traceReport) traced(fn func() error) (opTrace, time.Duration, error) {
	tr := rep.tr
	from := len(tr.spans)
	tr.op = rep.ops
	err := fn()
	tr.op = -1
	ot := tr.summarize(rep.ops, from)
	rep.ops++
	return ot, ot.wall, err
}

// perLayer is the set of per-layer metrics every traced run prints.
var perLayer = []struct{ name, span, unit string }{
	{"sweep.parse_expand_ms", "sweep.parse_expand", "ms"},
	{"sweep.encode_ms", "sweep.encode", "ms"},
	{"core.space_ms", "core.space", "ms"},
	{"core.run_ms", "core.run", "ms"},
	{"core.pareto_ms", "core.pareto", "ms"},
	{"nvsim.characterize_ms", "nvsim.characterize", "ms"},
	{"eval.evaluate_ms", "eval.evaluate", "ms"},
	{"query.refresh_ms", "query.refresh", "ms"},
	{"query.topk_ms", "query.topk", "ms"},
	{"query.filter_ms", "query.filter", "ms"},
	{"query.frontier_ms", "query.frontier", "ms"},
}

// finishTrace turns the rounds into per-layer metrics and writes the
// spans. server selects which overhead the untraced operation measures:
// the HTTP server's, or the CLI process's.
func (r *runner) finishTrace(rep *traceReport, server bool) error {
	if len(rep.rounds) == 0 {
		return fmt.Errorf("no traced round completed")
	}
	perOp := func(f func(tr *traceRound) float64) float64 {
		xs := make([]float64, len(rep.rounds))
		for i := range rep.rounds {
			xs[i] = f(&rep.rounds[i])
		}
		return median(xs)
	}
	m := map[string]metric{}
	for _, l := range perLayer {
		span := l.span
		m[l.name] = metric{perOp(func(t *traceRound) float64 { return ms(t.ot.self[span]) }), l.unit}
	}
	// Per-call means over every call in the run, set-up included.
	perCall := func(span string, scale float64) float64 {
		var total time.Duration
		n := 0
		for i := range rep.tr.spans {
			if s := rep.tr.spans[i]; s.Name == span {
				total += time.Duration(s.End - s.Start)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(total.Nanoseconds()) / float64(n) / scale
	}
	m["store.open_ms"] = metric{perCall("store.open", 1e6), "ms"}
	m["store.save_memo_ms"] = metric{perCall("store.save_memo", 1e6), "ms"}
	m["store.put_us"] = metric{perCall("store.put", 1e3), "us"}
	m["store.get_us"] = metric{perCall("store.get", 1e3), "us"}
	for _, c := range []struct{ name, unit string }{
		{"sweep.bytes_per_op", "B"},
		{"nvsim.characterizations_per_op", "count"},
		{"nvsim.memo_entries", "count"},
		{"store.memo_snapshot_mb", "MB"},
		{"store.points_written_per_op", "count"},
		{"store.hit_ratio", "ratio"},
		{"store.manifest_writes_per_op", "count"},
		{"query.rows_indexed", "count"},
		{"runtime.alloc_mb_per_op", "MB"},
		{"runtime.gc_cycles_per_op", "count"},
	} {
		name := c.name
		m[name] = metric{perOp(func(t *traceRound) float64 { return t.counters[name] }), c.unit}
	}
	untraced := perOp(func(t *traceRound) float64 { return ms(t.untraced) })
	layerSum := perOp(func(t *traceRound) float64 { return ms(t.ot.layers) })
	overhead := untraced - layerSum
	m["server.overhead_ms"] = metric{0, "ms"}
	m["cmd.process_ms"] = metric{0, "ms"}
	if server {
		m["server.overhead_ms"] = metric{overhead, "ms"}
	} else {
		m["cmd.process_ms"] = metric{overhead, "ms"}
	}
	m["trace.overhead_ms"] = metric{perOp(func(t *traceRound) float64 { return ms(t.traced) }) -
		perOp(func(t *traceRound) float64 { return ms(t.plain) }), "ms"}
	r.metrics = m

	for i := range rep.rounds {
		if t := &rep.rounds[i]; t.ot.layers > t.ot.wall {
			r.reject(fmt.Errorf("round %d: summed layer self time %v exceeds the operation's %v", i, t.ot.layers, t.ot.wall))
		}
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %s traced: %d rounds, untraced op p50 %.2f ms, call sequence p50 %.2f ms (layers %.2f ms)\n",
		r.o.workload, len(rep.rounds), untraced, perOp(func(t *traceRound) float64 { return ms(t.traced) }), layerSum)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	return r.writeSpans(rep.tr)
}

// writeSpans saves the run's spans once the run is over.
func (r *runner) writeSpans(tr *tracer) error {
	dir := filepath.Join(r.o.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.o.workload, r.o.seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{r.o.workload, r.o.seed, tr.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return nil
}
