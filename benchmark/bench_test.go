package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"gofusion/internal/exec"
	"gofusion/internal/physical"
	"gofusion/internal/serverload"
)

func TestTPCHOrderIsSeeded(t *testing.T) {
	differs := false
	for pass := 0; pass < 4; pass++ {
		a, b := tpchOrder(7, pass), tpchOrder(7, pass)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("pass %d: same seed gave %v and %v", pass, a, b)
		}
		sorted := append([]int(nil), a...)
		sort.Ints(sorted)
		if !reflect.DeepEqual(sorted, tpchQueries) {
			t.Fatalf("pass %d: order %v is not a permutation of %v", pass, a, tpchQueries)
		}
		if !reflect.DeepEqual(a, tpchOrder(8, pass)) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 gave the same query orders")
	}
}

func steps(seed int64, client, n int) []step {
	s := newSchedule(seed, client, 36)
	out := make([]step, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestScheduleIsSeeded(t *testing.T) {
	a := steps(7, 0, 400)
	if !reflect.DeepEqual(a, steps(7, 0, 400)) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, steps(8, 0, 400)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if reflect.DeepEqual(a, steps(7, 1, 400)) {
		t.Fatal("clients 0 and 1 got the same schedule")
	}
	for block := 0; block < len(a)/writeEvery; block++ {
		writes := 0
		for i := block * writeEvery; i < (block+1)*writeEvery; i++ {
			switch {
			case a[i].kind == kindWrite:
				writes++
			case i%preparedEvery == 0 && a[i].kind != kindPrepared:
				t.Fatalf("request %d is %d, want a prepared replay", i, a[i].kind)
			case i%preparedEvery != 0 && a[i].kind != kindRead:
				t.Fatalf("request %d is %d, want a read", i, a[i].kind)
			}
		}
		if writes != 1 {
			t.Fatalf("block %d has %d writes, want 1", block, writes)
		}
	}
}

func TestFuzzPoolIsSeeded(t *testing.T) {
	pool := func(seed int64) []string {
		w, err := serverload.NewWorkload(seed, fuzzQueries)
		if err != nil {
			t.Fatal(err)
		}
		return w.Queries
	}
	a := pool(7)
	if !reflect.DeepEqual(a, pool(7)) {
		t.Fatal("same seed gave different query pools")
	}
	if reflect.DeepEqual(a, pool(8)) {
		t.Fatal("seeds 7 and 8 gave the same query pool")
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the program must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), layerMetrics...) {
		if !valid.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", bf.PerLayer, layerMetrics)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
}

func withElapsed[T physical.MetricsProvider](op T, d time.Duration) T {
	op.Metrics().AddElapsed(d)
	return op
}

// TestOperatorSelf checks self-time subtraction on a hand-built executed
// plan: an aggregate over an exchange over a fused filter+projection
// segment reading a scan.
func TestOperatorSelf(t *testing.T) {
	scan := withElapsed(&exec.TableScanExec{}, 60*time.Millisecond)
	filter := withElapsed(&exec.FilterExec{Input: scan}, 10*time.Millisecond)
	proj := withElapsed(&exec.ProjectionExec{Input: filter}, 5*time.Millisecond)
	pipe := withElapsed(&exec.PipelineExec{Source: scan, Stages: []physical.ExecutionPlan{filter, proj}}, 80*time.Millisecond)
	// The exchange waited less than its producers computed: self time 0.
	repart := withElapsed(&exec.RepartitionExec{Input: pipe}, 70*time.Millisecond)
	agg := withElapsed(&exec.HashAggregateExec{Input: repart}, 100*time.Millisecond)

	got := map[string]time.Duration{}
	operatorSelf(agg, got)
	want := map[string]time.Duration{
		"HashAggregateExec": 30 * time.Millisecond, // 100 - 70
		"RepartitionExec":   0,                     // 70 - 80, clamped
		"PipelineExec":      5 * time.Millisecond,  // 80 - 60 - 10 - 5
		"ProjectionExec":    5 * time.Millisecond,  // stage time is self time
		"FilterExec":        10 * time.Millisecond,
		"TableScanExec":     60 * time.Millisecond, // leaf
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	rows, pruned, scanned := planCounters(agg)
	if rows != 0 || pruned != 0 || scanned != 0 {
		t.Fatalf("plan counters %d %d %d on an unexecuted scan", rows, pruned, scanned)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Name: "root", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{Op: 1, ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{Op: 1, ID: 4, Parent: 3, Name: "c", Start: 25, End: 35},
		{Op: 2, ID: 5, Name: "root", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := map[int32]time.Duration{1: 60, 2: 20, 3: 20, 4: 10, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	byName, total, rootSelf := layerSelf(spans)
	if total != 110 || rootSelf != 70 || byName["root"] != 70 || byName["b"] != 20 {
		t.Fatalf("layerSelf = %v, %v, %v", byName, total, rootSelf)
	}
}

func TestHeapPeakIntervals(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	h := &heapSampler{samples: []heapSample{
		{at(0), 10 << 20}, {at(50), 30 << 20}, {at(120), 20 << 20}, {at(250), 5 << 20},
	}}
	// [0,100) sees 10 and 30; [100,200) starts under 30, then 20;
	// [200,300) starts under 20, then 5.
	bounds := []time.Time{at(0), at(100), at(200), at(300)}
	for i, want := range []float64{30, 30, 20} {
		if got := h.peakMB(bounds[i], bounds[i+1]); got != want {
			t.Errorf("interval %d: peak %v MB, want %v", i, got, want)
		}
	}
	if got := h.medianPeakMB(bounds); got != 30 {
		t.Errorf("median peak %v MB, want 30", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Fatalf("p90 %v, want 3.7", got)
	}
	if got := geomean([]float64{1, 4}); got != 2 {
		t.Fatalf("geomean %v, want 2", got)
	}
}
