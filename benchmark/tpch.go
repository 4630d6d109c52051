package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/baseline"
	"gofusion/internal/catalog"
	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/parquet"
	"gofusion/internal/testutil"
	"gofusion/internal/workload/tpch"
)

const (
	tpchSF           = 0.1
	tpchRowGroupRows = 25_000
	targetPartitions = 2
	// tpchSetupReps is how many times a TPC-H run sets up (each writes
	// the 42 MB dataset); setup_s is the median.
	tpchSetupReps = 3
)

// tpchQueries are the TPC-H queries of both tpch-* workloads: scan-,
// join-, aggregation- and sort-heavy shapes.
var tpchQueries = []int{1, 3, 5, 6, 10, 12, 14, 19}

// Page-cache budgets of the two TPC-H workloads, which share files and
// queries: tpch-warm keeps the 256 MiB default (0), which holds the
// decoded working set; tpch-cold's 8 MiB holds about 7% of it.
const (
	warmCacheBytes = 0
	coldCacheBytes = 8 << 20
)

// tpchOrder returns the seed-shuffled query order of one pass.
func tpchOrder(seed int64, pass int) []int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	order := make([]int, len(tpchQueries))
	for i, j := range rng.Perm(len(tpchQueries)) {
		order[i] = tpchQueries[j]
	}
	return order
}

// tpchEnv is one set-up TPC-H workload: GPQ files on disk and a session
// over them.
type tpchEnv struct {
	dir       string
	s         *core.SessionContext
	texts     map[int]string
	warm      map[int]*arrow.RecordBatch // last warm-up result per query
	writeMBps float64
}

func (e *tpchEnv) close() {
	e.s.Close()
	os.RemoveAll(e.dir)
}

// setupTPCH generates the seeded sf-0.1 dataset, writes it as GPQ,
// registers it on a fresh session and warms it with one pass of every
// query.
func setupTPCH(dir string, seed, cacheBytes int64) (*tpchEnv, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g := tpch.NewGenerator(tpchSF)
	g.Seed = seed
	opts := parquet.DefaultWriterOptions()
	opts.RowGroupRows = tpchRowGroupRows
	var writeTime time.Duration
	var written int64
	for _, name := range tpch.TableNames {
		schema, batches, err := g.Generate(name)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, name+".gpq")
		start := time.Now()
		if err := parquet.WriteFile(path, schema, batches, opts); err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
		writeTime += time.Since(start)
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		written += st.Size()
	}
	cfg := core.DefaultConfig()
	cfg.TargetPartitions = targetPartitions
	cfg.SharedCacheBytes = cacheBytes
	cfg.SpillDir = dir
	s := core.NewSession(cfg)
	env := &tpchEnv{dir: dir, s: s, texts: map[int]string{}, warm: map[int]*arrow.RecordBatch{},
		writeMBps: float64(written) / (1 << 20) / writeTime.Seconds()}
	if err := tpch.RegisterGPQ(s, dir); err != nil {
		env.close()
		return nil, err
	}
	for _, n := range tpchQueries {
		q, err := tpch.Query(n)
		if err != nil {
			env.close()
			return nil, err
		}
		env.texts[n] = q
		b, err := runSQL(s, q)
		if err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up Q%d: %w", n, err)
		}
		env.warm[n] = b
	}
	return env, nil
}

func runSQL(s *core.SessionContext, q string) (*arrow.RecordBatch, error) {
	df, err := s.SQL(q)
	if err != nil {
		return nil, err
	}
	return df.CollectBatch()
}

// reference is a checked query result every timed execution must match.
type reference struct {
	rows int
	hash uint64
	norm []testutil.Row
}

// resultHash hashes normalized rows by their canonical keys (floats
// rounded to six significant digits), so it is independent of row order.
func resultHash(rows []testutil.Row) uint64 {
	h := fnv.New64a()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(rows)))
	h.Write(n[:])
	for _, r := range rows {
		io.WriteString(h, r.Key)
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// matches reports whether b equals the reference: same row count and
// hash, or on a hash difference (a float at a rounding boundary) the
// tolerance-aware canonical comparison.
func (r *reference) matches(b *arrow.RecordBatch) bool {
	if b.NumRows() != r.rows {
		return false
	}
	norm := testutil.NormalizeBatch(b)
	return resultHash(norm) == r.hash || testutil.Diff(norm, r.norm) == ""
}

// checkAgainstBaseline runs every query on the TightDB baseline over the
// same files and compares it with the engine's warm-up result under the
// canonical comparison. It returns the references for the timed runs
// and the number of queries that disagreed.
func checkAgainstBaseline(e *tpchEnv) (map[int]*reference, int, []string, error) {
	bl := baseline.New(targetPartitions)
	for _, name := range tpch.TableNames {
		if err := bl.RegisterGPQ(name, filepath.Join(e.dir, name+".gpq")); err != nil {
			return nil, 0, nil, err
		}
	}
	refs := map[int]*reference{}
	var bad int
	var notes []string
	for _, n := range tpchQueries {
		want, err := bl.Query(e.texts[n])
		if err != nil {
			return nil, 0, nil, fmt.Errorf("baseline Q%d: %w", n, err)
		}
		got := e.warm[n]
		if d := testutil.DiffBatches(got, want); d != "" {
			bad++
			notes = append(notes, fmt.Sprintf("Q%d differs from the baseline: %s", n, d))
		}
		norm := testutil.NormalizeBatch(got)
		refs[n] = &reference{rows: got.NumRows(), hash: resultHash(norm), norm: norm}
	}
	return refs, bad, notes, nil
}

// tpchWindow is what one timed window observed.
type tpchWindow struct {
	lat     map[int][]float64 // per query, ms
	queries int64
	wrong   int64
	failed  int64
	passes  []float64   // seconds per completed pass
	bounds  []time.Time // window start, then the end of each completed pass
	elapsed float64
	heapMB  float64
	// Traced windows only.
	spans      *tracer
	opSelf     map[string]time.Duration
	resultRows int64
	scanRows   int64
	rgPruned   int64
	rgScanned  int64
	poolPeak   int64
	spills     int64
	violations int64
	allocBytes uint64
	cache0     pageStats
	cache1     pageStats
}

type pageStats struct{ hits, misses, loads, evictions int64 }

func readPageStats(s *core.SessionContext) pageStats {
	pc := s.PageCache()
	if pc == nil {
		return pageStats{}
	}
	st := pc.Stats()
	return pageStats{st.Hits, st.Misses, st.Loads, st.Evictions}
}

// runWindow runs seed-shuffled passes over the query set for d. The
// deadline is checked per query. A traced window executes each query
// layer by layer with spans and reads the executed plan's metrics.
func (e *tpchEnv) runWindow(seed int64, firstPass int, d time.Duration, refs map[int]*reference, traced bool) *tpchWindow {
	w := &tpchWindow{lat: map[int][]float64{}, opSelf: map[string]time.Duration{}}
	if traced {
		w.spans = newTracer()
		w.cache0 = readPageStats(e.s)
	}
	runtime.GC()
	alloc0 := heapAllocBytes()
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(d)
	var op int64
	w.bounds = []time.Time{start}
	for pass := firstPass; time.Now().Before(deadline); pass++ {
		passStart := time.Now()
		complete := true
		for _, n := range tpchOrder(seed, pass) {
			if !time.Now().Before(deadline) {
				complete = false
				break
			}
			op++
			t0 := time.Now()
			var b *arrow.RecordBatch
			var err error
			if traced {
				b, err = e.tracedQuery(w, op, n)
			} else {
				b, err = runSQL(e.s, e.texts[n])
			}
			lat := time.Since(t0)
			w.queries++
			switch {
			case err != nil:
				w.failed++
			case !refs[n].matches(b):
				w.wrong++
			default:
				w.lat[n] = append(w.lat[n], ms(lat))
			}
		}
		if complete {
			w.passes = append(w.passes, since(passStart))
			w.bounds = append(w.bounds, time.Now())
		}
	}
	w.elapsed = since(start)
	heap.Stop()
	if len(w.bounds) < 2 {
		w.bounds = append(w.bounds, time.Now())
	}
	w.heapMB = heap.medianPeakMB(w.bounds)
	w.allocBytes = heapAllocBytes() - alloc0
	if traced {
		w.cache1 = readPageStats(e.s)
	}
	return w
}

// tracedQuery runs query n layer by layer under a root span and folds
// the executed plan's operator metrics into the window.
func (e *tpchEnv) tracedQuery(w *tpchWindow, op int64, n int) (*arrow.RecordBatch, error) {
	root := w.spans.begin(op, fmt.Sprintf("tpch.q%d", n), 0)
	defer w.spans.end(root)
	lr, err := runLadder(e.s, w.spans, op, root, e.texts[n], false)
	if err != nil {
		return nil, err
	}
	if err := exec.CheckPlanMetrics(lr.plan, lr.rows); err != nil {
		w.violations++
	}
	operatorSelf(lr.plan, w.opSelf)
	scanRows, pruned, scanned := planCounters(lr.plan)
	w.scanRows += scanRows
	w.rgPruned += pruned
	w.rgScanned += scanned
	w.resultRows += lr.rows
	w.poolPeak = max(w.poolPeak, lr.poolPeak)
	spills, _ := exec.PlanSpillStats(lr.plan)
	w.spills += spills
	return compute.ConcatBatches(lr.plan.Schema(), lr.batches)
}

// qps is the query set's size over the median time of a completed pass,
// so every query weighs the same and one disturbed pass does not move
// it; without a completed pass it is queries over the window.
func (w *tpchWindow) qps() float64 {
	if len(w.passes) > 0 {
		return float64(len(tpchQueries)) / median(w.passes)
	}
	return float64(w.queries) / w.elapsed
}

func (w *tpchWindow) samples() int {
	n := len(w.lat[tpchQueries[0]])
	for _, q := range tpchQueries {
		n = min(n, len(w.lat[q]))
	}
	return n
}

// runTPCH runs tpch-warm or tpch-cold.
func runTPCH(o options, cacheBytes int64) (*result, error) {
	res := &result{}
	var setupSecs, writeRates []float64
	var env *tpchEnv
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	for rep := 0; rep < tpchSetupReps; rep++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		env, err = setupTPCH(filepath.Join(o.workDir, fmt.Sprintf("tpch-%d", rep)), o.seed, cacheBytes)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupSecs = append(setupSecs, since(start))
		writeRates = append(writeRates, env.writeMBps)
	}
	refs, bad, notes, err := checkAgainstBaseline(env)
	if err != nil {
		return nil, err
	}
	for _, n := range notes {
		res.note("%s", n)
	}
	res.note("setup: %d runs, median %.3f s; baseline check: %d of %d queries agree",
		tpchSetupReps, median(setupSecs), len(tpchQueries)-bad, len(tpchQueries))

	window := time.Duration(o.seconds) * time.Second
	if o.trace {
		window /= 2
	}
	plain := env.runWindow(o.seed, 0, window, refs, false)
	res.attempted = plain.queries
	res.failed = plain.failed + plain.wrong + int64(bad)
	res.note("untraced window: %d queries in %.2f s, %d failed, %d wrong; %d complete passes, %d samples per query",
		plain.queries, plain.elapsed, plain.failed, plain.wrong, len(plain.passes), plain.samples())
	res.note("e2e qps %.4f 1/s, latency_p50_ms %.4f, latency_p90_ms %.4f (geomean over %d queries of per-query quantiles), heap_peak_mb %.2f, error_frac %.4g",
		plain.qps(), queryLatency(plain.lat, 0.5), queryLatency(plain.lat, 0.9), len(tpchQueries), plain.heapMB,
		float64(res.failed)/float64(max(res.attempted, 1)))
	for _, n := range tpchQueries {
		res.note("Q%d: p50 %.3f ms, p90 %.3f ms, n=%d", n, quantile(plain.lat[n], 0.5), quantile(plain.lat[n], 0.9), len(plain.lat[n]))
	}
	if !o.trace {
		res.set("setup_s", median(setupSecs), "s")
		res.set("qps", plain.qps(), "1/s")
		res.set("latency_p50_ms", queryLatency(plain.lat, 0.5), "ms")
		res.set("latency_p90_ms", queryLatency(plain.lat, 0.9), "ms")
		res.set("heap_peak_mb", plain.heapMB, "MB")
		res.correct = res.failed == 0
		return res, nil
	}

	tw := env.runWindow(o.seed, 1<<20, window, refs, true)
	res.attempted += tw.queries
	res.failed += tw.failed + tw.wrong + tw.violations
	res.correct = res.failed == 0
	zeroLayerMetrics(res)
	ops := float64(max(tw.queries, 1))
	spans := tw.spans.snapshot()
	byName, rootTotal, rootSelf := layerSelf(spans)
	res.set("sql.parse_us", us(byName[spanParse])/ops, "us")
	res.set("planner.plan_us", us(byName[spanPlan])/ops, "us")
	res.set("optimizer.optimize_us", us(byName[spanOptimize])/ops, "us")
	res.set("exec.lower_us", us(byName[spanLower])/ops, "us")
	res.set("exec.execute_ms", ms(byName[spanExecute])/ops, "ms")
	for k, d := range tw.opSelf {
		res.set("exec.self_ms."+k, ms(d)/ops, "ms")
	}
	res.set("exec.alloc_mb_per_query", float64(tw.allocBytes)/(1<<20)/ops, "MB")
	res.set("exec.scan_rows_per_result_row", float64(tw.scanRows)/float64(max(tw.resultRows, 1)), "ratio")
	res.set("exec.spill_count", float64(tw.spills), "count")
	res.set("exec.plan_metrics_violations", float64(tw.violations), "count")
	if rg := tw.rgPruned + tw.rgScanned; rg > 0 {
		res.set("parquet.row_groups_pruned_frac", float64(tw.rgPruned)/float64(rg), "ratio")
	}
	hits, misses := tw.cache1.hits-tw.cache0.hits, tw.cache1.misses-tw.cache0.misses
	if hits+misses > 0 {
		res.set("parquet.page_cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	}
	res.set("parquet.page_cache_evictions", float64(tw.cache1.evictions-tw.cache0.evictions), "count")
	res.set("parquet.page_cache_loads", float64(tw.cache1.loads-tw.cache0.loads), "count")
	decode, err := decodeMBps(env.dir)
	if err != nil {
		return nil, err
	}
	res.set("parquet.decode_mb_per_s", decode, "MB/s")
	res.set("parquet.write_mb_per_s", median(writeRates), "MB/s")
	res.set("memory.pool_peak_mb", float64(tw.poolPeak)/(1<<20), "MB")
	if rootTotal > 0 {
		res.set("trace.unaccounted_frac", float64(rootSelf)/float64(rootTotal), "ratio")
	}
	res.set("trace.qps_ratio", tw.qps()/plain.qps(), "ratio")
	res.note("traced window: %d queries in %.2f s, %d spans, %d plan-metric violations; traced qps %.4f vs untraced %.4f",
		tw.queries, tw.elapsed, len(spans), tw.violations, tw.qps(), plain.qps())
	path := filepath.Join(o.workDir, "trace-"+o.workload+".jsonl")
	if err := tw.spans.writeJSONL(path); err != nil {
		return nil, err
	}
	res.note("spans written to %s", path)
	return res, nil
}

// decodeMBps measures GPQ read, inflate and decode throughput with the
// page cache off: every file is scanned in full with parquet.OpenFile /
// Scan / Next, three times, and the median rate of decoded bytes per
// second is returned.
func decodeMBps(dir string) (float64, error) {
	var rates []float64
	for rep := 0; rep < 3; rep++ {
		var bytes int64
		start := time.Now()
		for _, name := range tpch.TableNames {
			n, err := decodeFile(filepath.Join(dir, name+".gpq"))
			if err != nil {
				return 0, err
			}
			bytes += n
		}
		rates = append(rates, float64(bytes)/(1<<20)/since(start))
	}
	return median(rates), nil
}

func decodeFile(path string) (int64, error) {
	fr, err := parquet.OpenFile(path)
	if err != nil {
		return 0, err
	}
	defer fr.Close()
	sc, err := fr.Scan(parquet.ScanOptions{Limit: catalog.NoLimit})
	if err != nil {
		return 0, err
	}
	defer sc.Close()
	var n int64
	for {
		b, err := sc.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
		n += arrow.BatchSize(b)
	}
}
