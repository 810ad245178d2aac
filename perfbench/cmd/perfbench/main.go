// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time and prints, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
//	paced    open-loop streaming into a separate evaxd process (2 sessions)
//	churn    short sessions with cuts, resumes and hot swaps against evaxd
//	offline  the vaccination pipeline in-process: simulate, train, defend, replay
//
// Throughputs and work times are CPU seconds (user+sys) of the process doing
// the work, so hypervisor steal does not count as program time; latencies
// are wall clock, because users wait in wall-clock time. With -trace 1 the
// run is traced instead: every layer's calls are timed in-process and the
// per-layer metrics are printed.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload paced -seed 1 -seconds 30 -trace 0 -evaxd .bench_build/evaxd
//	perfbench -make-inputs perfbench/testdata   # regenerate the kept inputs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload runs against.
type env struct {
	root    string // checkout root
	data    string // kept inputs
	evaxd   string // evaxd binary
	out     string // scratch output (trace files)
	seed    int64
	seconds float64
	rate    float64 // paced offered windows per second, all connections together
}

// spec is the part of BENCHMARK.json the run checks its output against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: paced, churn or offline")
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 30, "measured run length in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		root     = flag.String("root", ".", "checkout root holding BENCHMARK.json")
		evaxd    = flag.String("evaxd", ".bench_build/evaxd", "evaxd binary built from this checkout")
		rate     = flag.Float64("rate", pacedRate, "paced offered windows/s, all connections together (the README's rate ladder)")
		inputs   = flag.String("make-inputs", "", "regenerate the kept inputs into this directory and exit")
	)
	flag.Parse()
	if *inputs != "" {
		if err := makeInputs(*inputs); err != nil {
			fatalf("perfbench: %v", err)
		}
		return
	}
	sp, err := readSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	e := env{
		root:    *root,
		data:    filepath.Join(*root, "perfbench", "testdata"),
		evaxd:   *evaxd,
		out:     filepath.Join(*root, ".bench_build"),
		seed:    *seed,
		seconds: float64(*seconds),
		rate:    *rate,
	}
	if *seconds < 1 || *rate <= 0 {
		fatalf("perfbench: -seconds must be at least 1 and -rate positive")
	}
	run := map[string]func(env) (result, error){
		"paced":   runPaced,
		"churn":   runChurn,
		"offline": runOffline,
	}[*workload]
	if run == nil || !sp.hasWorkload(*workload) {
		fatalf("perfbench: unknown -workload %q", *workload)
	}
	want := sp.EndToEnd
	if *trace == 1 {
		run = func(e env) (result, error) { return runTraced(e, *workload) }
		want = sp.PerLayer
	}
	res, err := run(e)
	if err != nil {
		fatalf("perfbench: %s: %v", *workload, err)
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			fatalf("perfbench: %s did not measure %s [%s]", *workload, m.Name, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		fatalf("perfbench: %s reported %d metrics, BENCHMARK.json lists %d", *workload, len(res.Metrics), len(want))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func readSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

func (sp spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// report prints the figures a run measures beyond its metrics to standard
// error, sorted by name, so a noisy run can be told from a regression.
func report(workload string, kv map[string]float64) {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "perfbench %s:", workload)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, " %s=%.6g", k, kv[k])
	}
	fmt.Fprintln(os.Stderr)
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the q-quantile of sorted xs (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
