// Command perfbench is the repository benchmark: closed-loop workloads that
// drive the real study service and CLI, check every output with oracles of
// their own, and print the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON line. See README.md.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload cold-grid --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh steady -k 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	cli      string // the nvmexplorer binary built from this checkout
	out      string // build directory: scratch stores and span files go here
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(*runner) error
}{
	"cold-grid":  {(*runner).coldGrid, (*runner).coldGridTrace},
	"warm-mixed": {(*runner).warmMixed, (*runner).warmMixedTrace},
	"cli-store":  {(*runner).cliStore, (*runner).cliStoreTrace},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: cold-grid, warm-mixed or cli-store")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced layer-by-layer run")
	fs.StringVar(&o.cli, "cli", "", "path of the nvmexplorer binary")
	fs.StringVar(&o.out, "out", ".bench_build", "build directory for scratch stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || o.cli == "" || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload cold-grid|warm-mixed|cli-store, --seconds >= 1, --trace 0|1 and --cli")
		return 2
	}
	work := filepath.Join(o.out, "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &runner{o: o, work: work, rng: rand.New(rand.NewSource(o.seed)), in: makeInputs(o.seed)}
	run := w.run
	if o.trace {
		run = w.trace
	}
	err := run(r)
	// Scratch stores are deleted only after timing has ended.
	if cerr := removeScratch(work); cerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing scratch stores:", cerr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return finish(r, os.Stdout)
}

// finish prints the result line and returns the exit code: a run whose
// output failed a check reports correct=false and exits 1.
func finish(r *runner, w io.Writer) int {
	h := r.health
	fmt.Fprintf(w, "{\"store_health\":{\"io_errors\":%d,\"retries\":%d,\"quarantined\":%d,\"memo_discards\":%d,\"degraded\":%v}}\n",
		h.IOErrors, h.Retries, h.Quarantined, h.MemoDiscards, h.Degraded)
	res := result{Correct: r.wrong == nil, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	if r.wrong != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", r.wrong)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
