package parquet

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

func benchFile(b *testing.B, compression bool) string {
	b.Helper()
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.gpq")
	schema := arrow.NewSchema(
		arrow.NewField("id", arrow.Int64, false),
		arrow.NewField("name", arrow.String, false),
		arrow.NewField("score", arrow.Float64, false),
	)
	var batches []*arrow.RecordBatch
	for start := 0; start < 100_000; start += 10_000 {
		ib := arrow.NewNumericBuilder[int64](arrow.Int64)
		sb := arrow.NewStringBuilder(arrow.String)
		fb := arrow.NewNumericBuilder[float64](arrow.Float64)
		for i := start; i < start+10_000; i++ {
			ib.Append(int64(i))
			sb.Append("name-" + arrow.Int64Scalar(int64(i%97)).String())
			fb.Append(float64(i) / 3)
		}
		batches = append(batches, arrow.NewRecordBatch(schema, []arrow.Array{ib.Finish(), sb.Finish(), fb.Finish()}))
	}
	opts := DefaultWriterOptions()
	opts.Compression = compression
	if err := WriteFile(path, schema, batches, opts); err != nil {
		b.Fatal(err)
	}
	return path
}

func scanAllBench(b *testing.B, path string, opts ScanOptions) int64 {
	b.Helper()
	fr, err := OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer fr.Close()
	sc, err := fr.Scan(opts)
	if err != nil {
		b.Fatal(err)
	}
	var rows int64
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			return rows
		}
		if err != nil {
			b.Fatal(err)
		}
		rows += int64(batch.NumRows())
	}
}

func BenchmarkFullScanUncompressed(b *testing.B) {
	path := benchFile(b, false)
	st, _ := os.Stat(path)
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllBench(b, path, ScanOptions{Limit: -1})
	}
}

func BenchmarkFullScanCompressed(b *testing.B) {
	path := benchFile(b, true)
	st, _ := os.Stat(path)
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllBench(b, path, ScanOptions{Limit: -1})
	}
}

func BenchmarkSelectiveScanWithPruning(b *testing.B) {
	path := benchFile(b, true)
	pred := &cmpPredicateBench{col: 0, lit: arrow.Int64Scalar(99_000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllBench(b, path, ScanOptions{Predicate: pred, Limit: -1})
	}
}

func BenchmarkSelectiveScanNoPruning(b *testing.B) {
	path := benchFile(b, true)
	pred := &cmpPredicateBench{col: 0, lit: arrow.Int64Scalar(99_000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllBench(b, path, ScanOptions{Predicate: pred, Limit: -1,
			DisablePruning: true, DisableLateMaterialization: true})
	}
}

// BenchmarkScanWarm scans a 100k-row file whose pages are all resident in
// a warm page cache, with a predicate keeping about 2%, 50% and 98% of
// every page, so the cost is predicate evaluation and filtering rather
// than decode. allocs/op over batches/op tracks allocations per batch.
func BenchmarkScanWarm(b *testing.B) {
	path := filepath.Join(b.TempDir(), "warm.gpq")
	schema := arrow.NewSchema(
		arrow.NewField("id", arrow.Int64, false),
		arrow.NewField("bucket", arrow.Int64, false),
		arrow.NewField("name", arrow.String, false),
		arrow.NewField("score", arrow.Float64, false),
	)
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	kb := arrow.NewNumericBuilder[int64](arrow.Int64)
	sb := arrow.NewStringBuilder(arrow.String)
	fb := arrow.NewNumericBuilder[float64](arrow.Float64)
	for i := 0; i < 100_000; i++ {
		ib.Append(int64(i))
		kb.Append(int64(i*37) % 100) // every page holds every bucket
		sb.Append("name-" + arrow.Int64Scalar(int64(i%97)).String())
		fb.Append(float64(i) / 3)
	}
	batch := arrow.NewRecordBatch(schema, []arrow.Array{ib.Finish(), kb.Finish(), sb.Finish(), fb.Finish()})
	if err := WriteFile(path, schema, []*arrow.RecordBatch{batch}, DefaultWriterOptions()); err != nil {
		b.Fatal(err)
	}
	pc := NewPageCache(256<<20, nil)
	defer pc.Close()
	for _, pct := range []int64{2, 50, 98} {
		opts := ScanOptions{Predicate: &cmpPredicateBench{col: 1, lit: arrow.Int64Scalar(99 - pct)}, Limit: -1, Cache: pc}
		scanAllBench(b, path, opts) // warm the cache
		b.Run(fmt.Sprintf("sel=%d%%", pct), func(b *testing.B) {
			b.ReportAllocs()
			var batches int
			for i := 0; i < b.N; i++ {
				batches += scanBatchesBench(b, path, opts)
			}
			b.ReportMetric(float64(batches)/float64(b.N), "batches/op")
		})
	}
	if st := pc.Stats(); st.Evictions > 0 {
		b.Fatalf("page cache evicted pages, so scans were not all warm: %+v", st)
	}
}

// scanBatchesBench scans path and returns the number of batches.
func scanBatchesBench(b *testing.B, path string, opts ScanOptions) int {
	b.Helper()
	fr, err := OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer fr.Close()
	sc, err := fr.Scan(opts)
	if err != nil {
		b.Fatal(err)
	}
	for n := 0; ; n++ {
		if _, err := sc.Next(); err == io.EOF {
			return n
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

// cmpPredicateBench is `col > lit`.
type cmpPredicateBench struct {
	col int
	lit arrow.Scalar
}

func (p *cmpPredicateBench) Columns() []int { return []int{p.col} }
func (p *cmpPredicateBench) Evaluate(cols map[int]arrow.Array, _ int) (*arrow.BoolArray, error) {
	return compute.CompareScalar(compute.Gt, cols[p.col], p.lit)
}
func (p *cmpPredicateBench) KeepColumnStats(_ int, stats ColumnStats) bool {
	return StatsKeepCompare(">", stats, p.lit)
}
func (p *cmpPredicateBench) EqProbes() []EqProbe { return nil }
