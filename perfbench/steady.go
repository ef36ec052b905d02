package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness command reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs every workload k times per set, each run a fresh process
// with its own seed, and prints each end-to-end metric's median, quartiles
// and range next to its bound. A metric whose quartile spread (as a share
// of its median) exceeds its bound is flagged; with two or more sets, so is
// a set whose median is worse than the first set's by more than the bound,
// and any difference in the share of failed operations.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	k := fs.Int("k", 10, "runs per workload per set")
	sets := fs.Int("sets", 1, "independent sets of runs to compare")
	seconds := fs.Int("seconds", 0, "seconds per run (0: BENCHMARK.json run_seconds)")
	only := fs.String("workloads", "", "comma-separated workloads (default: those in BENCHMARK.json)")
	cli := fs.String("cli", "", "path of the nvmexplorer binary")
	out := fs.String("out", ".bench_build", "build directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	var b benchSpec
	if err := json.Unmarshal(data, &b); err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = b.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" { // any workload the benchmark has, listed or not
		names = strings.Split(*only, ",")
	}
	status := 0
	next := int64(1) // each run takes the next seed
	for _, name := range names {
		var medians []map[string]float64
		var failShare []float64
		for set := 0; set < *sets; set++ {
			vals := map[string][]float64{}
			attempted, failed := 0, 0
			for i := 0; i < *k; i++ {
				res, err := runOnce(self, name, next, *seconds, *cli, *out)
				next++
				if err != nil {
					fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", name, next-1, err)
					status = 1
					continue
				}
				attempted += res.Attempted
				failed += res.Failed
				for m, v := range res.Metrics {
					vals[m] = append(vals[m], v.Value)
				}
			}
			fmt.Printf("\n%s, set %d: %d runs of %d s, %d operations, %d failed\n", name, set+1, *k, *seconds, attempted, failed)
			fmt.Printf("  %-18s %12s %12s %12s %12s %12s %8s %7s\n", "metric", "median", "q1", "q3", "min", "max", "spread", "bound")
			med := map[string]float64{}
			for _, m := range b.EndToEnd {
				xs := vals[m.Name]
				if len(xs) < 2 {
					fmt.Printf("  %-18s too few runs\n", m.Name)
					status = 1
					continue
				}
				q1, q2, q3 := quartiles(xs)
				med[m.Name] = q2
				spread := (q3 - q1) / math.Abs(q2)
				flagged := ""
				if spread > m.Bound {
					flagged = "  WIDER THAN BOUND"
					if m.Name != "setup_s" {
						status = max(status, 3)
					}
				}
				lo, hi := xs[0], xs[0]
				for _, x := range xs {
					lo, hi = math.Min(lo, x), math.Max(hi, x)
				}
				fmt.Printf("  %-18s %12.4f %12.4f %12.4f %12.4f %12.4f %8.4f %7.3f%s\n", m.Name, q2, q1, q3, lo, hi, spread, m.Bound, flagged)
			}
			medians = append(medians, med)
			failShare = append(failShare, float64(failed)/math.Max(float64(attempted), 1))
		}
		for set := 1; set < len(medians); set++ {
			fmt.Printf("\n%s, set %d against set 1 (positive = worse)\n", name, set+1)
			for _, m := range b.EndToEnd {
				base, now := medians[0][m.Name], medians[set][m.Name]
				worse := (now - base) / math.Abs(base)
				if m.Better == "higher" {
					worse = -worse
				}
				flagged := ""
				if worse > m.Bound {
					flagged = "  WORSE BY MORE THAN BOUND"
					status = max(status, 3)
				}
				fmt.Printf("  %-18s %12.4f -> %12.4f %+8.4f %7.3f%s\n", m.Name, base, now, worse, m.Bound, flagged)
			}
			if failShare[set] != failShare[0] {
				fmt.Printf("  failed share %g differs from set 1's %g\n", failShare[set], failShare[0])
				status = max(status, 3)
			}
		}
	}
	return status
}

// runOnce runs one benchmark process and decodes its result line.
func runOnce(self, workload string, seed int64, seconds int, cli, out string) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--cli", cli, "--out", out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return res, fmt.Errorf("no result line: %v (exit: %v)", jerr, err)
	}
	if err != nil || !res.Correct {
		return res, fmt.Errorf("run failed: correct=%v: %v", res.Correct, err)
	}
	return res, nil
}
