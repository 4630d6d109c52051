package exec

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

// seqBatches returns n batches of rows sequential int64 ids in column "id".
func seqBatches(n, rows int) (*arrow.Schema, []*arrow.RecordBatch) {
	schema := arrow.NewSchema(arrow.NewField("id", arrow.Int64, false))
	batches := make([]*arrow.RecordBatch, n)
	for i := range batches {
		ids := make([]int64, rows)
		for j := range ids {
			ids[j] = int64(i*rows + j)
		}
		batches[i] = arrow.NewRecordBatch(schema, []arrow.Array{arrow.NewInt64(ids)})
	}
	return schema, batches
}

// countingExec passes its input through and counts the Next calls made
// on its single partition.
type countingExec struct {
	*ValuesExec
	calls int
}

func (e *countingExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	in, err := e.ValuesExec.Execute(ctx, partition)
	if err != nil {
		return nil, err
	}
	return NewFuncStream(in.Schema(), func() (*arrow.RecordBatch, error) {
		e.calls++
		return in.Next()
	}, in.Close), nil
}

// TestPushableContract runs every Pushable operator both standalone and
// as the one stage of a PipelineExec, over empty, one-row and many small
// input batches, and checks the contract both forms share: the same rows
// in the same order, output_rows equal to the rows emitted, inclusive
// standalone time, limits that stop pulling once satisfied, idempotent
// Close, EOF after EOF, cancellation, and no leaked goroutines.
func TestPushableContract(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	id := physical.NewColumnExpr(0, "id", arrow.Int64)
	sumFn, ok := testReg.Agg("sum")
	if !ok {
		t.Fatal("sum not registered")
	}
	sum, err := NewAggSpec(sumFn, "s", []physical.PhysicalExpr{id}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		name string
		// fetch is skip+fetch for a limit, whose input pull must stop once
		// that many rows have arrived; 0 for other operators.
		fetch int
		make  func(in physical.ExecutionPlan) physical.ExecutionPlan
	}{
		{"filter", 0, func(in physical.ExecutionPlan) physical.ExecutionPlan {
			return &FilterExec{Input: in, Predicate: idGreater(10)}
		}},
		{"projection", 0, func(in physical.ExecutionPlan) physical.ExecutionPlan {
			plus := &physical.BinaryExpr{Op: logical.OpAdd, L: id,
				R: &physical.LiteralExpr{Value: arrow.Int64Scalar(1)}, Type: arrow.Int64}
			return NewProjectionExec(in, []physical.PhysicalExpr{plus, id}, []string{"p", "id"}, nil)
		}},
		{"global-limit", 3 + 20, func(in physical.ExecutionPlan) physical.ExecutionPlan {
			return &GlobalLimitExec{Input: in, Skip: 3, Fetch: 20}
		}},
		{"local-limit", 20, func(in physical.ExecutionPlan) physical.ExecutionPlan {
			return &LocalLimitExec{Input: in, Fetch: 20}
		}},
		{"coalesce-batches", 0, func(in physical.ExecutionPlan) physical.ExecutionPlan {
			return &CoalesceBatchesExec{Input: in, Target: 10}
		}},
		{"partial-agg-early-flush", 0, func(in physical.ExecutionPlan) physical.ExecutionPlan {
			agg := NewHashAggregateExec(in, PartialAgg, []physical.PhysicalExpr{id}, []string{"id"}, []AggSpec{sum})
			agg.FlushThreshold = 4
			return agg
		}},
	}
	inputs := []struct {
		name          string
		batches, rows int
	}{
		{"empty", 3, 0},
		{"one-row", 30, 1},
		{"many-small", 48, 4},
	}
	for _, op := range ops {
		for _, in := range inputs {
			t.Run(op.name+"/"+in.name, func(t *testing.T) {
				schema, batches := seqBatches(in.batches, in.rows)
				// wantCalls is the number of input Next calls the operator
				// may make: all batches plus EOF, or for a limit only the
				// batches that reach its fetch.
				wantCalls := in.batches + 1
				if op.fetch > 0 && in.rows > 0 && op.fetch <= in.batches*in.rows {
					wantCalls = (op.fetch + in.rows - 1) / in.rows
				}

				alone := &countingExec{ValuesExec: NewValuesExec(schema, batches)}
				plan := op.make(alone)
				standalone := drainContract(t, plan)
				if alone.calls != wantCalls {
					t.Errorf("standalone pulled its input %d times, want %d", alone.calls, wantCalls)
				}
				m := plan.(physical.MetricsProvider).Metrics().Snapshot()
				if m.OutputRows != int64(len(standalone)) {
					t.Errorf("standalone output_rows=%d, emitted %d", m.OutputRows, len(standalone))
				}
				if child := alone.Metrics().Snapshot().Elapsed; m.Elapsed < child {
					t.Errorf("standalone elapsed_compute %v < child's %v", m.Elapsed, child)
				}

				src := &countingExec{ValuesExec: NewValuesExec(schema, batches)}
				stage := op.make(src)
				fused := drainContract(t, &PipelineExec{Source: src, Stages: []physical.ExecutionPlan{stage}})
				if src.calls != wantCalls {
					t.Errorf("fused stage pulled its input %d times, want %d", src.calls, wantCalls)
				}
				if got := stage.(physical.MetricsProvider).Metrics().OutputRows(); got != int64(len(fused)) {
					t.Errorf("fused stage output_rows=%d, emitted %d", got, len(fused))
				}
				if strings.Join(standalone, "\n") != strings.Join(fused, "\n") {
					t.Errorf("standalone and fused rows differ:\n%v\nvs\n%v", standalone, fused)
				}

				cancelled := physical.NewExecContext()
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				cancelled.Ctx = ctx
				s, err := op.make(NewValuesExec(schema, batches)).Execute(cancelled, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Next(); err == io.EOF || !errors.Is(err, context.Canceled) {
					t.Errorf("Next under a cancelled context = %v, want %v", err, context.Canceled)
				}
				s.Close()
			})
		}
	}
}

// drainContract executes partition 0 of plan to EOF and returns its rows
// as strings. It also checks that Next after EOF stays at EOF and that a
// second Close is harmless.
func drainContract(t *testing.T, plan physical.ExecutionPlan) []string {
	t.Helper()
	s, err := plan.Execute(physical.NewExecContext(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !b.Schema().Equal(plan.Schema()) {
			t.Fatalf("batch schema %v, plan schema %v", b.Schema(), plan.Schema())
		}
		rows = append(rows, rowsAsStrings(b)...)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("Next after EOF = %v, want io.EOF", err)
	}
	s.Close()
	s.Close()
	return rows
}

var benchRows int64

// BenchmarkStandaloneChain measures the per-batch loop overhead of
// unfused operators: Filter -> Projection -> LocalLimit, each run as its
// own stream, over 64 batches of 16 rows. The filter keeps every row and
// the limit cuts only the last batches, so nearly every batch crosses all
// three operators.
func BenchmarkStandaloneChain(b *testing.B) {
	schema, batches := seqBatches(64, 16)
	col := physical.NewColumnExpr(0, "id", arrow.Int64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan := &LocalLimitExec{
			Input: NewProjectionExec(
				&FilterExec{Input: NewValuesExec(schema, batches), Predicate: idGreater(-1)},
				[]physical.PhysicalExpr{col}, []string{"id"}, nil),
			Fetch: 1000,
		}
		out, err := CollectPlan(physical.NewExecContext(), plan)
		if err != nil {
			b.Fatal(err)
		}
		benchRows = sumRows(out)
	}
	if benchRows != 1000 {
		b.Fatalf("rows = %d, want 1000", benchRows)
	}
}
