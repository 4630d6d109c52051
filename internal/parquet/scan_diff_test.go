package parquet

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

// testPred is a Predicate assembled from closures, so the differential
// test can push compare, IN, LIKE-prefix and IS NULL shapes.
type testPred struct {
	name string
	cols []int
	eval func(cols map[int]arrow.Array) (*arrow.BoolArray, error)
	keep func(col int, stats ColumnStats) bool
}

func (p *testPred) Columns() []int { return p.cols }
func (p *testPred) Evaluate(cols map[int]arrow.Array, _ int) (*arrow.BoolArray, error) {
	return p.eval(cols)
}
func (p *testPred) KeepColumnStats(col int, stats ColumnStats) bool { return p.keep(col, stats) }
func (p *testPred) EqProbes() []EqProbe                             { return nil }

// Columns of diffSchema.
const (
	dID = iota
	dV
	dS
	dF
	dFlag
)

func diffSchema() *arrow.Schema {
	return arrow.NewSchema(
		arrow.NewField("id", arrow.Int64, false),
		arrow.NewField("v", arrow.Int32, true),
		arrow.NewField("s", arrow.String, true),
		arrow.NewField("f", arrow.Float64, true),
		arrow.NewField("flag", arrow.Boolean, true),
	)
}

// writeDiffFile writes numRows seeded random rows: id ascending, v small
// ints, s a low-cardinality (dictionary-encoded) string, f floats and
// flag bools, every nullable column about 15% null.
func writeDiffFile(t *testing.T, rng *rand.Rand, path string, numRows int, opts WriterOptions) {
	t.Helper()
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	vb := arrow.NewNumericBuilder[int32](arrow.Int32)
	sb := arrow.NewStringBuilder(arrow.String)
	fb := arrow.NewNumericBuilder[float64](arrow.Float64)
	bb := arrow.NewBoolBuilder()
	null := func() bool { return rng.Intn(100) < 15 }
	for i := 0; i < numRows; i++ {
		ib.Append(int64(i))
		if null() {
			vb.AppendNull()
		} else {
			vb.Append(int32(rng.Intn(20)))
		}
		if null() {
			sb.AppendNull()
		} else {
			sb.Append(fmt.Sprintf("k%d", rng.Intn(12)))
		}
		if null() {
			fb.AppendNull()
		} else {
			fb.Append(rng.Float64() * 100)
		}
		if null() {
			bb.AppendNull()
		} else {
			bb.Append(rng.Intn(2) == 0)
		}
	}
	schema := diffSchema()
	batch := arrow.NewRecordBatch(schema, []arrow.Array{ib.Finish(), vb.Finish(), sb.Finish(), fb.Finish(), bb.Finish()})
	if err := WriteFile(path, schema, []*arrow.RecordBatch{batch}, opts); err != nil {
		t.Fatal(err)
	}
}

// diffPredicates returns predicates over diffSchema whose masks contain
// nulls wherever a compared value is null.
func diffPredicates(rng *rand.Rand, numRows int) []*testPred {
	cmp := func(col int, op compute.CmpOp, sqlOp string, lit arrow.Scalar) *testPred {
		return &testPred{
			name: fmt.Sprintf("col%d %s %v", col, sqlOp, lit.Val),
			cols: []int{col},
			eval: func(cols map[int]arrow.Array) (*arrow.BoolArray, error) {
				return compute.CompareScalar(op, cols[col], lit)
			},
			keep: func(_ int, stats ColumnStats) bool { return StatsKeepCompare(sqlOp, stats, lit) },
		}
	}
	in := func(col int, lits ...string) *testPred {
		return &testPred{
			name: fmt.Sprintf("col%d IN %v", col, lits),
			cols: []int{col},
			eval: func(cols map[int]arrow.Array) (*arrow.BoolArray, error) {
				var out *arrow.BoolArray
				for _, l := range lits {
					m, err := compute.CompareScalar(compute.Eq, cols[col], arrow.StringScalar(l))
					if err != nil {
						return nil, err
					}
					if out == nil {
						out = m
					} else if out, err = compute.Or(out, m); err != nil {
						return nil, err
					}
				}
				return out, nil
			},
			keep: func(_ int, stats ColumnStats) bool {
				for _, l := range lits {
					if StatsKeepCompare("=", stats, arrow.StringScalar(l)) {
						return true
					}
				}
				return false
			},
		}
	}
	likePrefix := func(col int, prefix string) *testPred {
		m, err := compute.CompileLike(prefix+"%", false)
		if err != nil {
			panic(err)
		}
		return &testPred{
			name: fmt.Sprintf("col%d LIKE %q", col, prefix+"%"),
			cols: []int{col},
			eval: func(cols map[int]arrow.Array) (*arrow.BoolArray, error) {
				return m.Eval(cols[col].(*arrow.StringArray)), nil
			},
			keep: func(_ int, stats ColumnStats) bool {
				return StatsKeepCompare(">=", stats, arrow.StringScalar(prefix)) &&
					StatsKeepCompare("<", stats, arrow.StringScalar(widenStringBound(prefix)))
			},
		}
	}
	isNull := func(col int) *testPred {
		return &testPred{
			name: fmt.Sprintf("col%d IS NULL", col),
			cols: []int{col},
			eval: func(cols map[int]arrow.Array) (*arrow.BoolArray, error) {
				return compute.IsNullMask(cols[col]), nil
			},
			keep: func(_ int, stats ColumnStats) bool { return stats.NullCount > 0 },
		}
	}
	// combine joins two predicates with a kernel (AND or OR); pruning
	// keeps a page unless both sides can rule it out (for AND: either).
	combine := func(name string, a, b *testPred, and bool) *testPred {
		return &testPred{
			name: fmt.Sprintf("(%s) %s (%s)", a.name, name, b.name),
			cols: []int{a.cols[0], b.cols[0]},
			eval: func(cols map[int]arrow.Array) (*arrow.BoolArray, error) {
				x, err := a.eval(cols)
				if err != nil {
					return nil, err
				}
				y, err := b.eval(cols)
				if err != nil {
					return nil, err
				}
				if and {
					return compute.And(x, y)
				}
				return compute.Or(x, y)
			},
			keep: func(col int, stats ColumnStats) bool {
				if !and {
					return true
				}
				return (col != a.cols[0] || a.keep(col, stats)) && (col != b.cols[0] || b.keep(col, stats))
			},
		}
	}
	mid := arrow.Int64Scalar(int64(rng.Intn(numRows)))
	return []*testPred{
		cmp(dV, compute.Lt, "<", arrow.NewScalar(arrow.Int32, int32(rng.Intn(20)))),
		cmp(dID, compute.GtEq, ">=", mid),
		in(dS, "k1", "k7", "zz"),
		likePrefix(dS, "k1"),
		isNull(dF),
		combine("AND", cmp(dV, compute.GtEq, ">=", arrow.NewScalar(arrow.Int32, int32(5))), cmp(dID, compute.Lt, "<", mid), true),
		combine("OR", isNull(dFlag), cmp(dV, compute.Gt, ">", arrow.NewScalar(arrow.Int32, int32(15))), false),
	}
}

// collectScan drains sc, checking that every batch is non-empty and at
// most batchRows rows.
func collectScan(t *testing.T, sc *Scanner, batchRows int) *arrow.RecordBatch {
	t.Helper()
	defer sc.Close()
	var batches []*arrow.RecordBatch
	for {
		b, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.NumRows() == 0 || b.NumRows() > batchRows {
			t.Fatalf("batch of %d rows, want 1..%d", b.NumRows(), batchRows)
		}
		batches = append(batches, b)
	}
	out, err := compute.ConcatBatches(sc.Schema(), batches)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameRows(t *testing.T, name string, got, want *arrow.RecordBatch) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: %d rows x %d cols, want %d x %d", name, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c := 0; c < got.NumCols(); c++ {
		for r := 0; r < got.NumRows(); r++ {
			if g, w := got.Column(c).GetScalar(r), want.Column(c).GetScalar(r); !g.Equal(w) {
				t.Fatalf("%s: row %d col %d = %v, want %v", name, r, c, g, w)
			}
		}
	}
}

// TestScanMatchesEagerReference scans seeded random files with page
// pruning and late materialization on, under every combination of
// projection, limit, batch size, readahead and page cache, and requires
// the rows of the DisablePruning+DisableLateMaterialization scan in the
// same order. That reference is itself checked against a full scan
// filtered afterwards.
func TestScanMatchesEagerReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1017))
	layouts := []struct{ pageRows, groupRows, rows int }{
		{1, 70, 300},
		{7, 100, 1500},
		{64, 333, 2500},
		{1000, 2300, 5000},
	}
	for _, lay := range layouts {
		path := filepath.Join(t.TempDir(), "d.gpq")
		writeDiffFile(t, rng, path, lay.rows, WriterOptions{
			RowGroupRows: lay.groupRows, PageRows: lay.pageRows,
			Dictionary: true, Compression: rng.Intn(2) == 0, BloomFilters: true,
		})
		fr, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Metadata().footer.RowGroups[0].Columns[dS].Dict == nil {
			t.Fatal("s should be dictionary encoded")
		}
		cache := NewPageCache(64<<20, nil)
		full := collectScan(t, mustScan(t, fr, ScanOptions{Limit: -1}), 8192)
		fullCols := map[int]arrow.Array{}
		for c := 0; c < full.NumCols(); c++ {
			fullCols[c] = full.Column(c)
		}
		for _, pred := range diffPredicates(rng, lay.rows) {
			for _, proj := range [][]int{nil, {dFlag, dF}} {
				mask, err := pred.Evaluate(fullCols, full.NumRows())
				if err != nil {
					t.Fatal(err)
				}
				want, err := compute.FilterBatch(full.Project(projOrAll(proj, full.NumCols())), mask)
				if err != nil {
					t.Fatal(err)
				}
				ref := collectScan(t, mustScan(t, fr, ScanOptions{Projection: proj, Predicate: pred, Limit: -1,
					DisablePruning: true, DisableLateMaterialization: true}), 8192)
				name := fmt.Sprintf("pageRows=%d %s proj=%v", lay.pageRows, pred.name, proj)
				sameRows(t, name+" reference", ref, want)
				for _, limit := range []int64{-1, int64(rng.Intn(50))} {
					for _, batchRows := range []int{0, 5} {
						for _, readahead := range []int{0, 2} {
							for _, pc := range []*PageCache{nil, cache} {
								opts := ScanOptions{Projection: proj, Predicate: pred, Limit: limit,
									BatchRows: batchRows, Readahead: readahead, Cache: pc}
								maxRows := batchRows
								if maxRows == 0 {
									maxRows = 8192 // the ScanOptions default
								}
								got := collectScan(t, mustScan(t, fr, opts), maxRows)
								exp := ref
								if limit >= 0 && int64(exp.NumRows()) > limit {
									exp = exp.Slice(0, int(limit))
								}
								sameRows(t, fmt.Sprintf("%s limit=%d batchRows=%d readahead=%d cache=%v",
									name, limit, batchRows, readahead, pc != nil), got, exp)
							}
						}
					}
				}
			}
		}
		cache.Close()
		fr.Close()
	}
}

func mustScan(t *testing.T, fr *FileReader, opts ScanOptions) *Scanner {
	t.Helper()
	sc, err := fr.Scan(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func projOrAll(proj []int, n int) []int {
	if proj != nil {
		return proj
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// TestScanFullySelectedPageIsZeroCopy pins late materialization's zero
// copy: with a warm page cache, a page whose rows all match reaches the
// consumer as the cache's own arrays, while a partly matching page is a
// fresh filtered copy.
func TestScanFullySelectedPageIsZeroCopy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 1000, WriterOptions{RowGroupRows: 1000, PageRows: 100})
	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	pc := NewPageCache(64<<20, nil)
	defer pc.Close()
	resident := func(col, page int) arrow.Array {
		arr, hit, err := pc.CachedPage(PageKey{File: fr.Fingerprint(), Col: col, Page: page}, func() (arrow.Array, error) {
			return nil, fmt.Errorf("page %d of column %d is not resident", page, col)
		})
		if err != nil || !hit {
			t.Fatalf("cache lookup: hit=%v err=%v", hit, err)
		}
		return arr
	}
	// id >= 50 keeps half of page 0 and all of pages 1..9.
	pred := &cmpPredicate{col: 0, op: compute.GtEq, lit: arrow.Int64Scalar(50)}
	opts := ScanOptions{Projection: []int{0, 2}, Predicate: pred, Limit: -1, Cache: pc}
	collectScan(t, mustScan(t, fr, opts), 8192) // warm
	sc := mustScan(t, fr, opts)
	defer sc.Close()
	first, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	second, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.NumRows() != 50 || second.NumRows() != 100 {
		t.Fatalf("batch rows %d, %d; want 50, 100", first.NumRows(), second.NumRows())
	}
	if first.Column(0) == resident(0, 0) || first.Column(1) == resident(2, 0) {
		t.Fatal("a partly matching page must be filtered into fresh arrays")
	}
	if second.Column(0) != resident(0, 1) || second.Column(1) != resident(2, 1) {
		t.Fatal("a fully matching page must be emitted as the cached arrays")
	}
}
