package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
)

// The design space every workload draws from: four optimistic tentpole
// cells × 32 capacities × 4 access widths = 512 characterization configs,
// under four fixed traffic patterns. Inputs that change the work a study
// costs stay fixed, so every seed costs the program the same; the seed
// picks orders and query choices (see makeInputs and newSession).
var (
	gridTechs = []string{"STT", "RRAM", "PCM", "FeFET"}
	gridWords = []int{64, 128, 256, 512}
	// gridCaps spans 128 KiB to ~6.7 MiB in quarter-octave steps.
	gridCaps = func() []int64 {
		caps := make([]int64, 32)
		for i := range caps {
			caps[i] = int64(math.Round(math.Pow(2, 17+float64(i)/4)))
		}
		return caps
	}()
	// gridPatterns are the fixed traffic rates (accesses per second).
	gridPatterns = []pattern{
		{"read-heavy", 2.5e8, 3.1e5},
		{"balanced", 1.7e7, 1.1e7},
		{"write-heavy", 6.4e5, 4.3e6},
		{"low-duty", 2.2e4, 1.9e3},
	}
	// gridPareto is the study frontier block: three minimized metrics.
	gridPareto = []string{"total_power_mw", "mem_time_per_sec", "area_mm2"}
)

// warmStudies is how many stored studies warm-mixed queries over; study i
// takes word width gridWords[i%4] and the (i/4)th half of gridCaps, so the
// eight studies of 64 configs partition the 512-config grid.
const warmStudies = 8

// pattern is one fixed traffic pattern as the config states it.
type pattern struct {
	Name   string  `json:"name"`
	Reads  float64 `json:"reads_per_sec"`
	Writes float64 `json:"writes_per_sec"`
}

// grid is the cross product a study config declares.
type grid struct {
	techs    []string
	caps     []int64
	words    []int
	patterns []pattern
}

func (g grid) rows() int { return len(g.techs) * len(g.caps) * len(g.words) * len(g.patterns) }

// inputs are the study configs a run sends to the program.
type inputs struct {
	full      grid   // the 512-config grid
	fullJSON  []byte // its study config
	studies   []grid // warm-mixed studies
	studyJSON [][]byte
}

// makeInputs builds the configs. The seed shuffles the order in which the
// full grid lists its cells and capacities, which reorders its rows and
// its characterizations but not their number.
func makeInputs(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	full := grid{techs: slices.Clone(gridTechs), caps: slices.Clone(gridCaps), words: gridWords, patterns: gridPatterns}
	rng.Shuffle(len(full.techs), func(i, j int) { full.techs[i], full.techs[j] = full.techs[j], full.techs[i] })
	rng.Shuffle(len(full.caps), func(i, j int) { full.caps[i], full.caps[j] = full.caps[j], full.caps[i] })
	in := inputs{full: full, fullJSON: studyConfig("perfbench-grid", full)}
	for i := 0; i < warmStudies; i++ {
		g := grid{techs: gridTechs, caps: gridCaps[(i/4)*16 : (i/4)*16+16],
			words: []int{gridWords[i%4]}, patterns: gridPatterns}
		in.studies = append(in.studies, g)
		in.studyJSON = append(in.studyJSON, studyConfig(warmName(i), g))
	}
	return in
}

func warmName(i int) string { return "perfbench-warm-" + strconv.Itoa(i) }

// studyConfig renders a sweep configuration as JSON.
func studyConfig(name string, g grid) []byte {
	type cellRef struct {
		Technology string `json:"technology"`
		Flavor     string `json:"flavor"`
	}
	cfg := struct {
		Name         string    `json:"name"`
		Cells        []cellRef `json:"cells"`
		Capacities   []int64   `json:"capacities_bytes"`
		WordBitsAxis []int     `json:"word_bits_axis"`
		Traffic      struct {
			Fixed []pattern `json:"fixed"`
		} `json:"traffic"`
		Pareto struct {
			Metrics []string `json:"metrics"`
		} `json:"pareto"`
	}{Name: name, Capacities: g.caps, WordBitsAxis: g.words}
	for _, t := range g.techs {
		cfg.Cells = append(cfg.Cells, cellRef{t, "Opt"})
	}
	cfg.Traffic.Fixed = g.patterns
	cfg.Pareto.Metrics = gridPareto
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("perfbench: rendering study config: %v", err)) // static types only
	}
	return b
}

// Query vocabularies the seeded sessions draw from. Every metric here is
// minimized by the program's frontier selection.
var (
	sortMetrics     = []string{"total_power_mw", "dynamic_power_mw", "mem_time_per_sec", "read_latency_ns", "write_energy_pj", "leakage_power_mw"}
	filterMetrics   = []string{"total_power_mw", "mem_time_per_sec", "area_mm2"}
	frontierMetrics = []string{"total_power_mw", "mem_time_per_sec", "area_mm2", "read_latency_ns", "write_energy_pj", "dynamic_power_mw", "leakage_power_mw"}
)

// pick2 draws two distinct entries.
func pick2(rng *rand.Rand, from []string) []string {
	i := rng.Intn(len(from))
	j := rng.Intn(len(from) - 1)
	if j >= i {
		j++
	}
	return []string{from[i], from[j]}
}
