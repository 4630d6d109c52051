// Command benchmark is GoFusion's single reproducible benchmark. For one
// named workload it generates inputs from a seed, measures the engine for
// a fixed number of seconds, checks every output, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash benchmark/run.sh --workload tpch-warm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run spends half its seconds untraced and half with
// spans around every layer call, and the metrics are the per-layer ones
// (see METRICS.md for every metric and the end-to-end metric it moves).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(o options) (*result, error){
	"tpch-warm":   func(o options) (*result, error) { return runTPCH(o, warmCacheBytes) },
	"tpch-cold":   func(o options) (*result, error) { return runTPCH(o, coldCacheBytes) },
	"serve-mixed": runServe,
}

// options are the parsed command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. Metrics holds the end-to-end metrics of
// an untraced run or the per-layer metrics of a traced one; report holds
// human-readable lines printed before the JSON line.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
	report    []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: tpch-warm, tpch-cold or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for generated data and traces")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	prov := collectProvenance(o)
	res, err := run(o)
	if err == nil {
		want := endToEnd
		if o.trace {
			want = layerMetrics
		}
		err = checkMetricSet(res, want)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, prov, res)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult writes the provenance, the report lines, every metric with
// its unit, and finally the JSON result line.
func printResult(w *os.File, prov provenance, res *result) {
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(w, "# provenance %s\n", pj)
	for _, line := range res.report {
		fmt.Fprintf(w, "# %s\n", line)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Fprintf(w, "# metric %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics})
	fmt.Fprintln(w, string(out))
}

// since returns seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
