package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// The output oracles. They read the program's NDJSON bytes with the
// benchmark's own row type and check them against the configuration the
// benchmark sent, the cell table from GET /v1/cells, and the analytical
// model of Section II-B — never against another output of the program.

// num is a row value; the program writes an unbounded value as null.
type num float64

func (n *num) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*n = num(math.Inf(1))
		return nil
	}
	f, err := strconv.ParseFloat(string(b), 64)
	*n = num(f)
	return err
}

// row is one design-point line. All fields are comparable, so two rows are
// equal exactly when every reported value is.
type row struct {
	Cell           string `json:"cell"`
	Technology     string `json:"technology"`
	BitsPerCell    int    `json:"bits_per_cell"`
	CapacityBytes  int64  `json:"capacity_bytes"`
	OptTarget      string `json:"opt_target"`
	Pattern        string `json:"pattern"`
	ReadLatencyNS  num    `json:"read_latency_ns"`
	WriteLatencyNS num    `json:"write_latency_ns"`
	ReadEnergyPJ   num    `json:"read_energy_pj"`
	WriteEnergyPJ  num    `json:"write_energy_pj"`
	LeakagePowerMW num    `json:"leakage_power_mw"`
	AreaMM2        num    `json:"area_mm2"`
	TotalPowerMW   num    `json:"total_power_mw"`
	DynamicPowerMW num    `json:"dynamic_power_mw"`
	MemTimePerSec  num    `json:"mem_time_per_sec"`
	LifetimeYears  num    `json:"lifetime_years"`
	WordBits       int    `json:"word_bits"`
}

// metricOf reads a named metric; only minimized metrics are used.
func metricOf(r *row, name string) (float64, error) {
	switch name {
	case "total_power_mw":
		return float64(r.TotalPowerMW), nil
	case "dynamic_power_mw":
		return float64(r.DynamicPowerMW), nil
	case "leakage_power_mw":
		return float64(r.LeakagePowerMW), nil
	case "mem_time_per_sec":
		return float64(r.MemTimePerSec), nil
	case "read_latency_ns":
		return float64(r.ReadLatencyNS), nil
	case "write_energy_pj":
		return float64(r.WriteEnergyPJ), nil
	case "area_mm2":
		return float64(r.AreaMM2), nil
	}
	return 0, fmt.Errorf("oracle has no metric %q", name)
}

// frontier is the NDJSON frontier trailer.
type frontier struct {
	Metrics []string `json:"metrics"`
	Points  []int    `json:"points"`
}

// ndjson is one parsed NDJSON body: its rows, the raw bytes of the row
// lines, and the frontier trailer when present.
type ndjson struct {
	rows     []row
	rowBytes []byte
	frontier *frontier
}

// parseNDJSON splits a study or query body into rows and trailer. A
// failed-points or error line makes the body invalid: a healthy run has
// neither.
func parseNDJSON(b []byte) (*ndjson, error) {
	out := &ndjson{}
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return nil, fmt.Errorf("body does not end in a newline")
		}
		line := b[:i+1]
		b = b[i+1:]
		switch {
		case bytes.HasPrefix(line, []byte(`{"frontier":`)):
			var t struct {
				Frontier *frontier `json:"frontier"`
			}
			if err := json.Unmarshal(line, &t); err != nil || t.Frontier == nil {
				return nil, fmt.Errorf("bad frontier trailer %q", line)
			}
			if out.frontier != nil {
				return nil, fmt.Errorf("two frontier trailers")
			}
			out.frontier = t.Frontier
		case out.frontier != nil:
			return nil, fmt.Errorf("line after the frontier trailer: %q", line)
		case bytes.HasPrefix(line, []byte(`{"cell":`)):
			var r row
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("bad row %q: %v", line, err)
			}
			out.rows = append(out.rows, r)
			out.rowBytes = append(out.rowBytes, line...)
		default:
			return nil, fmt.Errorf("unexpected line %q", line)
		}
	}
	return out, nil
}

// rowKey is a row's coordinate in the config's cross product.
type rowKey struct {
	tech    string
	cap     int64
	words   int
	pattern string
}

// checkCrossProduct verifies the row set is exactly the config's cross
// product, each coordinate once, under the default target and SLC cells.
func checkCrossProduct(rows []row, g grid) error {
	if len(rows) != g.rows() {
		return fmt.Errorf("%d rows, want %d", len(rows), g.rows())
	}
	want := make(map[rowKey]bool, g.rows())
	for _, t := range g.techs {
		for _, c := range g.caps {
			for _, w := range g.words {
				for _, p := range g.patterns {
					want[rowKey{t, c, w, p.Name}] = true
				}
			}
		}
	}
	for i := range rows {
		r := &rows[i]
		k := rowKey{r.Technology, r.CapacityBytes, r.WordBits, r.Pattern}
		if !want[k] {
			return fmt.Errorf("row %d %+v is outside the grid or repeated", i, k)
		}
		delete(want, k)
		if r.OptTarget != "ReadEDP" || r.BitsPerCell != 1 {
			return fmt.Errorf("row %d has target %q and %d bits per cell", i, r.OptTarget, r.BitsPerCell)
		}
	}
	return nil
}

// relTol bounds the recomputed model values; a sample check matched
// exactly, so anything past rounding noise is a real difference.
const relTol = 1e-9

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), math.SmallestNonzeroFloat64)
}

// checkModel recomputes each row's dynamic power and memory time per
// second from its own array fields and the fixed traffic rates (the
// Section II-B model: energy × rate, latency × rate, serially aggregated),
// and checks that total power covers dynamic plus leakage power.
func checkModel(rows []row, pats []pattern) error {
	rate := make(map[string]pattern, len(pats))
	for _, p := range pats {
		rate[p.Name] = p
	}
	for i := range rows {
		r := &rows[i]
		p, ok := rate[r.Pattern]
		if !ok {
			return fmt.Errorf("row %d names unknown pattern %q", i, r.Pattern)
		}
		dyn := (p.Reads*float64(r.ReadEnergyPJ) + p.Writes*float64(r.WriteEnergyPJ)) * 1e-9
		if !closeTo(float64(r.DynamicPowerMW), dyn) {
			return fmt.Errorf("row %d dynamic_power_mw %g, model gives %g", i, r.DynamicPowerMW, dyn)
		}
		mt := (p.Reads*float64(r.ReadLatencyNS) + p.Writes*float64(r.WriteLatencyNS)) * 1e-9
		if !closeTo(float64(r.MemTimePerSec), mt) {
			return fmt.Errorf("row %d mem_time_per_sec %g, model gives %g", i, r.MemTimePerSec, mt)
		}
		floor := float64(r.DynamicPowerMW + r.LeakagePowerMW)
		if float64(r.TotalPowerMW) < floor*(1-relTol) {
			return fmt.Errorf("row %d total_power_mw %g below dynamic+leakage %g", i, r.TotalPowerMW, floor)
		}
	}
	return nil
}

// cellInfo is one GET /v1/cells entry.
type cellInfo struct {
	Name   string  `json:"name"`
	AreaF2 float64 `json:"area_f2"`
	NodeNM float64 `json:"node_nm"`
}

// checkArea verifies no array is smaller than its raw cells:
// capacity·8/bits cells of AreaF2·F² each, F the node in mm.
func checkArea(rows []row, cells map[string]cellInfo) error {
	for i := range rows {
		r := &rows[i]
		c, ok := cells[r.Cell]
		if !ok {
			return fmt.Errorf("row %d cell %q is not in /v1/cells", i, r.Cell)
		}
		f := c.NodeNM * 1e-6
		lb := float64(r.CapacityBytes) * 8 / float64(r.BitsPerCell) * c.AreaF2 * f * f
		if !(float64(r.AreaMM2) >= lb*(1-relTol)) {
			return fmt.Errorf("row %d area_mm2 %g below the raw cell area %g", i, r.AreaMM2, lb)
		}
	}
	return nil
}

// checkFrontier verifies a frontier with a dominance scan of its own: no
// listed row is dominated by any row, and every other row is dominated by a
// listed one (every dominated row is dominated by some undominated row, so
// together the two scans pin the frontier exactly).
func checkFrontier(rows []row, f *frontier, metrics []string) error {
	if f == nil {
		return fmt.Errorf("no frontier trailer")
	}
	if !slices.Equal(f.Metrics, metrics) {
		return fmt.Errorf("frontier metrics %v, want %v", f.Metrics, metrics)
	}
	vals := make([][]float64, len(rows))
	for i := range rows {
		v := make([]float64, len(metrics))
		for k, m := range metrics {
			x, err := metricOf(&rows[i], m)
			if err != nil {
				return err
			}
			if math.IsNaN(x) {
				x = math.Inf(1)
			}
			v[k] = x
		}
		vals[i] = v
	}
	dominates := func(a, b []float64) bool {
		strict := false
		for k := range a {
			if a[k] > b[k] {
				return false
			}
			if a[k] < b[k] {
				strict = true
			}
		}
		return strict
	}
	on := make([]bool, len(rows))
	for n, p := range f.Points {
		if p < 0 || p >= len(rows) || (n > 0 && p <= f.Points[n-1]) {
			return fmt.Errorf("frontier index %d out of range or order", p)
		}
		on[p] = true
	}
	for _, p := range f.Points {
		for j := range vals {
			if dominates(vals[j], vals[p]) {
				return fmt.Errorf("frontier row %d is dominated by row %d", p, j)
			}
		}
	}
	for i := range vals {
		if on[i] {
			continue
		}
		dominated := false
		for _, p := range f.Points {
			if dominates(vals[p], vals[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("row %d is undominated but not on the frontier", i)
		}
	}
	return nil
}

// checkStudy runs every row oracle on one study body.
func checkStudy(b *ndjson, g grid, cells map[string]cellInfo) error {
	if err := checkCrossProduct(b.rows, g); err != nil {
		return err
	}
	if err := checkModel(b.rows, g.patterns); err != nil {
		return err
	}
	if err := checkArea(b.rows, cells); err != nil {
		return err
	}
	return checkFrontier(b.rows, b.frontier, gridPareto)
}

// rowQuery is a query answered by brute force: an optional technology
// equality and inclusive metric ceiling, then a stable sort (NaN last in
// either order), then the first top rows.
type rowQuery struct {
	tech   string
	maxOf  string
	maxVal float64
	sortBy string
	desc   bool
	top    int
}

func (q rowQuery) answer(rows []row) ([]row, error) {
	type keyed struct {
		r   row
		key float64
	}
	var sel []keyed
	for i := range rows {
		r := &rows[i]
		if q.tech != "" && r.Technology != q.tech {
			continue
		}
		if q.maxOf != "" {
			v, err := metricOf(r, q.maxOf)
			if err != nil {
				return nil, err
			}
			if !(v <= q.maxVal) {
				continue
			}
		}
		k, err := metricOf(r, q.sortBy)
		if err != nil {
			return nil, err
		}
		sel = append(sel, keyed{*r, k})
	}
	slices.SortStableFunc(sel, func(a, b keyed) int {
		an, bn := math.IsNaN(a.key), math.IsNaN(b.key)
		switch {
		case an && bn:
			return 0
		case an:
			return 1
		case bn:
			return -1
		case a.key < b.key:
			if q.desc {
				return 1
			}
			return -1
		case a.key > b.key:
			if q.desc {
				return -1
			}
			return 1
		}
		return 0
	})
	if q.top > 0 && len(sel) > q.top {
		sel = sel[:q.top]
	}
	out := make([]row, len(sel))
	for i := range sel {
		out[i] = sel[i].r
	}
	return out, nil
}

// checkQuery compares a query body with the brute-force answer over the
// union of the stored rows.
func checkQuery(got []row, q rowQuery, union []row) error {
	want, err := q.answer(union)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("query returned %d rows, brute force %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("query row %d is %s@%d/%d/%s, brute force has %s@%d/%d/%s", i,
				got[i].Cell, got[i].CapacityBytes, got[i].WordBits, got[i].Pattern,
				want[i].Cell, want[i].CapacityBytes, want[i].WordBits, want[i].Pattern)
		}
	}
	return nil
}
