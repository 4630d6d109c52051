package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics an untraced run reports on every workload.
// METRICS.md gives each one's definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"heap_peak_mb", "MB"},
}

// operatorKinds are the physical operators whose self time is reported
// as exec.self_ms.<kind>; any other operator accrues to "other".
var operatorKinds = []string{
	"TableScanExec",
	"FilterExec",
	"ProjectionExec",
	"HashAggregateExec",
	"HashJoinExec",
	"ExternalSortExec",
	"SortPreservingMergeExec",
	"TopKExec",
	"RepartitionExec",
	"CoalescePartitionsExec",
	"CoalesceBatchesExec",
	"PipelineExec",
	"other",
}

// layerMetrics are the metrics a traced run reports on every workload;
// a layer the workload does not exercise reports 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"sql.parse_us", "us"},
		{"planner.plan_us", "us"},
		{"optimizer.optimize_us", "us"},
		{"exec.lower_us", "us"},
		{"exec.execute_ms", "ms"},
		{"exec.alloc_mb_per_query", "MB"},
		{"exec.scan_rows_per_result_row", "ratio"},
		{"exec.spill_count", "count"},
		{"exec.plan_metrics_violations", "count"},
		{"core.plan_cache_hit_ratio", "ratio"},
		{"core.plan_cache_invalidations", "count"},
		{"core.insert_us", "us"},
		{"server.outside_execute_us", "us"},
		{"server.encode_us", "us"},
		{"server.response_bytes", "B"},
		{"server.peak_in_flight", "count"},
		{"server.shed", "count"},
		{"parquet.page_cache_hit_ratio", "ratio"},
		{"parquet.page_cache_evictions", "count"},
		{"parquet.page_cache_loads", "count"},
		{"parquet.row_groups_pruned_frac", "ratio"},
		{"parquet.decode_mb_per_s", "MB/s"},
		{"parquet.write_mb_per_s", "MB/s"},
		{"memory.pool_peak_mb", "MB"},
		{"trace.unaccounted_frac", "ratio"},
		{"trace.qps_ratio", "ratio"},
	}
	for _, k := range operatorKinds {
		defs = append(defs, metricDef{"exec.self_ms." + k, "ms"})
	}
	return defs
}()

// zeroLayerMetrics presets every per-layer metric to 0 so a traced run
// reports the full set even where a layer is not exercised.
func zeroLayerMetrics(r *result) {
	for _, d := range layerMetrics {
		r.set(d.Name, 0, d.Unit)
	}
}

// checkMetricSet verifies that a result carries exactly the expected
// metrics with their declared units.
func checkMetricSet(r *result, want []metricDef) error {
	if len(r.metrics) != len(want) {
		var got []string
		for n := range r.metrics {
			got = append(got, n)
		}
		sort.Strings(got)
		return fmt.Errorf("reported %d metrics %v, want %d", len(got), got, len(want))
	}
	for _, d := range want {
		m, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s not reported", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	return nil
}
