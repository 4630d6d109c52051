package exec

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/logical"
	"gofusion/internal/parquet"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

// writeSeqGPQ writes n sequential int64 ids into one GPQ file.
func writeSeqGPQ(t *testing.T, path string, n, rowGroupRows int) {
	t.Helper()
	schema := arrow.NewSchema(arrow.NewField("id", arrow.Int64, false))
	b := arrow.NewNumericBuilder[int64](arrow.Int64)
	for i := 0; i < n; i++ {
		b.Append(int64(i))
	}
	if err := parquet.WriteFile(path, schema,
		[]*arrow.RecordBatch{arrow.NewRecordBatch(schema, []arrow.Array{b.Finish()})},
		parquet.WriterOptions{RowGroupRows: rowGroupRows}); err != nil {
		t.Fatal(err)
	}
}

func seqScan(t *testing.T, path string, partitions int) *TableScanExec {
	t.Helper()
	tbl, err := catalog.NewGPQTable([]string{path}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Scan(catalog.ScanRequest{Limit: -1, Partitions: partitions, Readahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	return NewTableScanExec("t", res)
}

func idGreater(n int64) physical.PhysicalExpr {
	return &physical.BinaryExpr{
		Op:   logical.OpGt,
		L:    physical.NewColumnExpr(0, "id", arrow.Int64),
		R:    &physical.LiteralExpr{Value: arrow.Int64Scalar(n)},
		Type: arrow.Boolean,
	}
}

func sumRows(batches []*arrow.RecordBatch) int64 {
	var rows int64
	for _, b := range batches {
		rows += int64(b.NumRows())
	}
	return rows
}

// TestFusePipelinesShape pins the fusion pass output: a filter+coalesce
// chain over a multi-partition GPQ scan becomes one morsel-driven
// PipelineExec whose Children still expose the original operator chain,
// while a lone fusable operator over a morsel-less source stays unfused.
func TestFusePipelinesShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeSeqGPQ(t, path, 800, 100)

	scan := seqScan(t, path, 2)
	if scan.Result.Morsels == nil || scan.Result.Morsels.Units() == 0 {
		t.Fatal("multi-partition GPQ scan should expose morsels")
	}
	rows := scan.Result.Morsels.Rows
	for i := 1; i < len(rows); i++ {
		if rows[i] > rows[i-1] {
			t.Fatalf("morsels not largest-first: %v", rows)
		}
	}

	chain := &CoalesceBatchesExec{Input: &FilterExec{Input: scan, Predicate: idGreater(99)}, Target: 8192}
	fused, err := fusePipelines(chain)
	if err != nil {
		t.Fatal(err)
	}
	seg, ok := fused.(*PipelineExec)
	if !ok {
		t.Fatalf("fused root = %T, want *PipelineExec", fused)
	}
	if len(seg.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(seg.Stages))
	}
	if !strings.Contains(seg.String(), "scheduler=morsel") {
		t.Fatalf("segment should be morsel-driven: %q", seg.String())
	}
	// EXPLAIN sees the original chain nested under the segment.
	co, ok := seg.Children()[0].(*CoalesceBatchesExec)
	if !ok {
		t.Fatalf("segment child = %T, want *CoalesceBatchesExec", seg.Children()[0])
	}
	fi, ok := co.Input.(*FilterExec)
	if !ok {
		t.Fatalf("coalesce input = %T, want *FilterExec", co.Input)
	}
	if _, ok := fi.Input.(*TableScanExec); !ok {
		t.Fatalf("filter input = %T, want *TableScanExec", fi.Input)
	}

	// A single fusable op over a single-partition (morsel-less) scan is
	// not worth a segment and stays a plain operator.
	lone := &FilterExec{Input: seqScan(t, path, 1), Predicate: idGreater(99)}
	unfused, err := fusePipelines(lone)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := unfused.(*FilterExec); !ok {
		t.Fatalf("lone filter fused to %T, want *FilterExec", unfused)
	}
}

// TestFusedMatchesUnfused executes the same chain fused and unfused and
// requires identical results plus clean metric invariants on both.
func TestFusedMatchesUnfused(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeSeqGPQ(t, path, 4000, 100)

	build := func() physical.ExecutionPlan {
		return &CoalesceBatchesExec{
			Input:  &FilterExec{Input: seqScan(t, path, 4), Predicate: idGreater(999)},
			Target: 8192,
		}
	}
	fusedPlan, err := fusePipelines(build())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fusedPlan.(*PipelineExec); !ok {
		t.Fatalf("expected fused plan, got %T", fusedPlan)
	}
	for name, plan := range map[string]physical.ExecutionPlan{"unfused": build(), "fused": fusedPlan} {
		batches, err := CollectPlan(physical.NewExecContext(), plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows := sumRows(batches)
		if rows != 3000 {
			t.Errorf("%s: rows = %d, want 3000", name, rows)
		}
		if err := CheckPlanMetrics(plan, rows); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestFusedGlobalLimitStopsSource checks that a limit fusing into the
// loop stops the morsel/source drain early: the scan must not read all
// row groups to satisfy a small fetch.
func TestFusedGlobalLimitStopsSource(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeSeqGPQ(t, path, 8000, 100)

	scan := seqScan(t, path, 1)
	chain := &GlobalLimitExec{
		Input: &FilterExec{Input: scan, Predicate: idGreater(-1)},
		Skip:  0, Fetch: 50,
	}
	plan, err := fusePipelines(chain)
	if err != nil {
		t.Fatal(err)
	}
	seg, ok := plan.(*PipelineExec)
	if !ok || len(seg.Stages) != 2 {
		t.Fatalf("limit chain should fuse into 2 stages, got %T", plan)
	}
	batches, err := CollectPlan(physical.NewExecContext(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rows := sumRows(batches); rows != 50 {
		t.Fatalf("rows = %d, want 50", rows)
	}
	if err := CheckPlanMetrics(plan, 50); err != nil {
		t.Error(err)
	}
	if scanned := scan.Metrics().OutputRows(); scanned >= 8000 {
		t.Errorf("fused limit did not stop the source: scan emitted %d rows", scanned)
	}
}

// TestMorselCancellationMidDrain opens every worker of a morsel-driven
// fused segment, pulls one batch each, then cancels the query and
// closes mid-drain. No readahead producer or worker goroutine may
// survive (run under -race and -tags sanitize in CI).
func TestMorselCancellationMidDrain(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeSeqGPQ(t, path, 6400, 100)

	scan := seqScan(t, path, 4)
	plan, err := fusePipelines(&CoalesceBatchesExec{
		Input:  &FilterExec{Input: scan, Predicate: idGreater(-1)},
		Target: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	ctx := physical.NewExecContext()
	ctx.Ctx = cctx

	n := plan.Partitions()
	streams := make([]physical.Stream, n)
	for p := 0; p < n; p++ {
		s, err := plan.Execute(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		streams[p] = s
		if _, err := s.Next(); err == io.EOF {
			t.Fatalf("p%d: EOF before any batch", p)
		} else if err != nil {
			t.Fatalf("p%d first batch: %v", p, err)
		}
	}
	cancel()
	for _, s := range streams {
		for {
			_, err := s.Next()
			if err == io.EOF {
				break // a worker that drained before the cancel landed
			}
			if err != nil {
				break // cancellation error
			}
		}
		s.Close()
	}
}

// TestMorselSchedulingBalancesSkew builds a skewed layout — 80 small
// single-row-group files followed by one fat file with two 30k-row
// groups — and compares worker makespan under static dealing vs the
// morsel queue. Static dealing is greedy in file order, so the fat row
// groups land on partitions already loaded with 20k rows of small
// files (50k-row stragglers). The morsel comparison replays the real
// queue (largest-first chunks, shared cursor) under a deterministic
// worker simulation: the earliest-free worker claims next, and cost is
// the chunk's row count. Dynamic claiming lets idle workers absorb the
// small files, dropping the makespan toward one fat chunk (~35k rows).
func TestMorselSchedulingBalancesSkew(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	dir := t.TempDir()
	var files []string
	for f := 0; f < 80; f++ {
		p := filepath.Join(dir, fmt.Sprintf("small-%02d.gpq", f))
		writeSeqGPQ(t, p, 1000, 1000)
		files = append(files, p)
	}
	fat := filepath.Join(dir, "zfat.gpq")
	writeSeqGPQ(t, fat, 60_000, 30_000)
	files = append(files, fat)

	tbl, err := catalog.NewGPQTable(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Scan(catalog.ScanRequest{Limit: -1, Partitions: 4, Readahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Morsels == nil {
		t.Fatal("skewed scan should expose morsels")
	}

	// Static makespan proxy: rows dealt to the fullest partition.
	staticRows := make([]int64, 4)
	var total int64
	for p := 0; p < 4; p++ {
		s, err := res.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		for {
			b, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			staticRows[p] += int64(b.NumRows())
		}
		s.Close()
		total += staticRows[p]
	}
	if total != 140_000 {
		t.Fatalf("static total = %d, want 140000", total)
	}
	staticMax := staticRows[0]
	for _, r := range staticRows[1:] {
		if r > staticMax {
			staticMax = r
		}
	}
	// Greedy file-order dealing parks a 30k fat unit on two partitions
	// that already hold 20k rows of small files.
	if staticMax < 45_000 {
		t.Fatalf("static dealing unexpectedly balanced: %v", staticRows)
	}

	// Morsel makespan: replay the real shared queue with four simulated
	// workers; the earliest-finished worker claims the next chunk.
	q := newMorselQueue(res.Morsels)
	clocks := make([]int64, 4)
	for {
		w := 0
		for i := 1; i < 4; i++ {
			if clocks[i] < clocks[w] {
				w = i
			}
		}
		u := q.claim()
		if u < 0 {
			break
		}
		clocks[w] += res.Morsels.Rows[u]
	}
	if got, want := q.claimed(), res.Morsels.Units(); got != want {
		t.Fatalf("claimed %d of %d units", got, want)
	}
	morselMax := clocks[0]
	for _, c := range clocks[1:] {
		if c > morselMax {
			morselMax = c
		}
	}
	if morselMax >= staticMax {
		t.Errorf("morsel makespan %d rows not better than static %d (clocks=%v static=%v)",
			morselMax, staticMax, clocks, staticRows)
	}

	// Executing the morsel-driven segment delivers every row exactly
	// once across concurrently draining workers.
	res2, err := tbl.Scan(catalog.ScanRequest{Limit: -1, Partitions: 4, Readahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	seg := &PipelineExec{Source: NewTableScanExec("skew", res2)}
	ctx := physical.NewExecContext()
	var wg sync.WaitGroup
	workerRows := make([]int64, 4)
	for p := 0; p < 4; p++ {
		s, err := seg.Execute(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int, s physical.Stream) {
			defer wg.Done()
			defer s.Close()
			for {
				b, err := s.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				workerRows[p] += int64(b.NumRows())
			}
		}(p, s)
	}
	wg.Wait()
	var morselTotal int64
	for _, r := range workerRows {
		morselTotal += r
	}
	if morselTotal != 140_000 {
		t.Fatalf("morsel workers delivered %d rows, want 140000 (%v)", morselTotal, workerRows)
	}
}

// TestExchangeBufferDepthDerivesFromPartitions pins the derived default:
// unset buffers scale with target_partitions but never shrink below the
// fixed default.
func TestExchangeBufferDepthDerivesFromPartitions(t *testing.T) {
	ctx := physical.NewExecContext()
	ctx.TargetPartitions = 16
	if got := ctx.ExchangeBufferDepth(); got != 16 {
		t.Errorf("derived depth = %d, want 16", got)
	}
	ctx.TargetPartitions = 2
	if got := ctx.ExchangeBufferDepth(); got != physical.DefaultExchangeBuffer {
		t.Errorf("small-parallelism depth = %d, want %d", got, physical.DefaultExchangeBuffer)
	}
	ctx.ExchangeBuffer = 3
	ctx.TargetPartitions = 16
	if got := ctx.ExchangeBufferDepth(); got != 3 {
		t.Errorf("explicit depth = %d, want 3", got)
	}
}
