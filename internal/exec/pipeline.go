package exec

import (
	"fmt"
	"io"
	"sync"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/physical"
)

// PipelineExec runs a fused pipeline segment: a maximal chain of
// push-capable operators compiled into one batch-at-a-time loop per
// worker, with no per-operator stream frames between them (ROADMAP open
// item 2; PAPERS.md "Push vs. Pull-Based Loop Fusion"). When its source
// scan exposes morsels, the segment additionally replaces the static
// partition assignment with a shared work queue that all partitions
// drain, so load balances dynamically under skew.
//
// The fused operators keep their original child links (Stages[0]'s
// child is Source), and Children returns the top of that chain — so
// EXPLAIN renders the segment as an annotated group with the real
// operators nested beneath, and CheckPlanMetrics walks them unchanged.
type PipelineExec struct {
	physical.OpMetrics
	// Source feeds the segment: a scan or any pipeline breaker's output.
	Source physical.ExecutionPlan
	// Stages are the fused operators bottom-up; each implements
	// physical.Pushable.
	Stages []physical.ExecutionPlan

	// queue is the shared morsel queue, lazily built on first Execute so
	// all partitions of one run drain the same cursor.
	mu    sync.Mutex
	queue *morselQueue
}

// top returns the head of the fused chain (the node whose schema and
// partitioning the segment presents).
func (e *PipelineExec) top() physical.ExecutionPlan {
	if n := len(e.Stages); n > 0 {
		return e.Stages[n-1]
	}
	return e.Source
}

func (e *PipelineExec) Schema() *arrow.Schema { return e.top().Schema() }
func (e *PipelineExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.top()}
}
func (e *PipelineExec) Partitions() int                      { return e.top().Partitions() }
func (e *PipelineExec) OutputOrdering() []physical.SortField { return e.top().OutputOrdering() }

func (e *PipelineExec) String() string {
	if scan := e.morselScan(); scan != nil {
		return fmt.Sprintf("PipelineExec: stages=%d scheduler=morsel units=%d",
			len(e.Stages), scan.Result.Morsels.Units())
	}
	return fmt.Sprintf("PipelineExec: stages=%d scheduler=static", len(e.Stages))
}

// WithChildren rebuilds the segment from a (possibly rewritten) chain
// top by re-extracting the maximal pushable suffix.
func (e *PipelineExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	top, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	source, stages := extractFusedChain(top)
	return &PipelineExec{Source: source, Stages: stages}, nil
}

// extractFusedChain walks down from top collecting the contiguous run of
// push-capable unary operators; the first non-pushable node is the
// segment source. Stages come back bottom-up.
func extractFusedChain(top physical.ExecutionPlan) (physical.ExecutionPlan, []physical.ExecutionPlan) {
	var rev []physical.ExecutionPlan
	n := top
	for {
		p, ok := n.(physical.Pushable)
		if !ok || !p.CanPush() {
			break
		}
		rev = append(rev, n)
		n = n.Children()[0]
	}
	stages := make([]physical.ExecutionPlan, len(rev))
	for i, s := range rev {
		stages[len(rev)-1-i] = s
	}
	return n, stages
}

// morselScan returns the source scan when it can feed a morsel queue.
func (e *PipelineExec) morselScan() *TableScanExec {
	if s, ok := e.Source.(*TableScanExec); ok && s.Result.Morsels != nil && s.Result.Morsels.Units() > 0 {
		return s
	}
	return nil
}

// openSource opens this partition's input: either a worker view of the
// shared morsel queue (instrumented as the scan so its metrics and
// pruning counters keep their pull-mode semantics) or the static
// per-partition stream.
func (e *PipelineExec) openSource(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	scan := e.morselScan()
	if scan == nil {
		return e.Source.Execute(ctx, partition)
	}
	e.mu.Lock()
	if e.queue == nil {
		e.queue = newMorselQueue(scan.Result.Morsels)
	}
	q := e.queue
	e.mu.Unlock()
	return scan.instrument(&morselStream{schema: scan.Schema(), q: q}), nil
}

func (e *PipelineExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	src, err := e.openSource(ctx, partition)
	if err != nil {
		return nil, err
	}
	stages := make([]*fusedStage, len(e.Stages))
	for i, st := range e.Stages {
		push, ok := st.(physical.Pushable)
		if !ok {
			src.Close()
			closeStages(stages[:i])
			return nil, fmt.Errorf("exec: fused stage %T is not pushable (optimizer bug)", st)
		}
		pusher, err := push.PushInto(ctx, partition)
		if err != nil {
			src.Close()
			closeStages(stages[:i])
			return nil, err
		}
		var m *physical.MetricsSet
		if mp, ok := st.(physical.MetricsProvider); ok {
			m = mp.Metrics()
		}
		stages[i] = newFusedStage(pusher, m)
	}
	return physical.InstrumentStream(&fusedStream{
		schema: e.Schema(), ctx: ctx, src: src, stages: stages,
	}, e.Metrics()), nil
}

// executePushed runs one pushable operator on its own: a one-stage fused
// loop over its child's partition. This is the operator's only
// implementation outside a PipelineExec. The stage records no metrics of
// its own; m instruments the whole stream instead, so the operator's
// output_rows are counted once and its elapsed_compute includes its
// input, like every other standalone operator's.
func executePushed(ctx *physical.ExecContext, partition int, op physical.Pushable, m *physical.MetricsSet) (physical.Stream, error) {
	src, err := op.Children()[0].Execute(ctx, partition)
	if err != nil {
		return nil, err
	}
	pusher, err := op.PushInto(ctx, partition)
	if err != nil {
		src.Close()
		return nil, err
	}
	return physical.InstrumentStream(&fusedStream{
		schema: op.Schema(), ctx: ctx, src: src,
		stages: []*fusedStage{newFusedStage(pusher, nil)},
	}, m), nil
}

func closeStages(stages []*fusedStage) {
	for _, st := range stages {
		st.pusher.Close()
	}
}

// fusedStage is one operator's per-partition state inside a fused loop.
type fusedStage struct {
	pusher physical.Pusher
	// m is the operator's own MetricsSet inside a PipelineExec; nil for a
	// standalone operator, whose stream is instrumented as a whole.
	m    *physical.MetricsSet
	emit physical.EmitFn
	// buf collects the batches emitted by the current Push/Flush round;
	// the driver hands it to the next stage after the call returns.
	buf []*arrow.RecordBatch
	// done marks that the operator will never emit again (limit
	// satisfied); the driver stops feeding the pipeline.
	done bool
}

func newFusedStage(pusher physical.Pusher, m *physical.MetricsSet) *fusedStage {
	st := &fusedStage{pusher: pusher, m: m}
	st.emit = st.collect
	return st
}

// collect is the stage's EmitFn: it counts output into the operator's
// own MetricsSet — preserving per-operator accounting inside the fused
// loop — and buffers the batch for the next stage.
func (st *fusedStage) collect(b *arrow.RecordBatch) error {
	if b == nil || b.NumRows() == 0 {
		return nil
	}
	if st.m != nil {
		st.m.AddOutput(int64(b.NumRows()))
	}
	st.buf = append(st.buf, b)
	return nil
}

// fusedStream drives a fused segment for one worker: pull a source
// batch, cascade it through every stage in-line, and hand the chain's
// outputs to the consumer. There are no goroutines or channels between
// stages; each stage's compute time accrues to its own operator.
type fusedStream struct {
	schema *arrow.Schema
	ctx    *physical.ExecContext
	src    physical.Stream
	stages []*fusedStage
	// out queues the chain's outputs; out[next:] are not yet returned.
	// The queue is reused once drained, so steady state allocates nothing
	// per batch.
	out  []*arrow.RecordBatch
	next int
	// one feeds a single batch to the first stage it enters.
	one     [1]*arrow.RecordBatch
	srcDone bool
	flushed bool
	closed  bool
}

func (s *fusedStream) Schema() *arrow.Schema { return s.schema }

func (s *fusedStream) Next() (*arrow.RecordBatch, error) {
	for {
		if s.next < len(s.out) {
			b := s.out[s.next]
			s.out[s.next] = nil
			s.next++
			return b, nil
		}
		s.out, s.next = s.out[:0], 0
		if s.flushed {
			return nil, io.EOF
		}
		if err := checkCancel(s.ctx); err != nil {
			return nil, err
		}
		if s.srcDone {
			if err := s.flush(); err != nil {
				return nil, err
			}
			s.flushed = true
			continue
		}
		b, err := s.src.Next()
		if err == io.EOF {
			s.srcDone = true
			continue
		}
		if err != nil {
			return nil, err
		}
		if b.NumRows() == 0 {
			continue
		}
		if err := s.process(0, b); err != nil {
			return nil, err
		}
	}
}

// process cascades one batch through stages[from:], appending whatever
// survives the full chain to the output queue. When a stage reports
// done, the source stops and batches bound for that stage are dropped —
// batches it already emitted still flow downstream.
func (s *fusedStream) process(from int, b *arrow.RecordBatch) error {
	s.one[0] = b
	in := s.one[:]
	for i := from; i < len(s.stages); i++ {
		st := s.stages[i]
		if st.done || len(in) == 0 {
			return nil
		}
		st.buf = st.buf[:0]
		start := st.start()
		for _, ib := range in {
			done, err := st.pusher.Push(ib, st.emit)
			if err != nil {
				st.addElapsed(start)
				return err
			}
			if done {
				st.done = true
				s.srcDone = true
				break
			}
		}
		st.addElapsed(start)
		in = st.buf
	}
	s.out = append(s.out, in...)
	return nil
}

// flush drains buffered stage state bottom-up after the source is
// exhausted (or a limit fired): each stage's flush output passes through
// the stages above it before that stage's own flush runs, preserving
// batch order.
func (s *fusedStream) flush() error {
	for i, st := range s.stages {
		if st.done {
			continue
		}
		st.buf = st.buf[:0]
		start := st.start()
		err := st.pusher.Flush(st.emit)
		st.addElapsed(start)
		if err != nil {
			return err
		}
		if i+1 == len(s.stages) {
			s.out = append(s.out, st.buf...)
			continue
		}
		// process only touches the stages above i, so st.buf stays put.
		for _, b := range st.buf {
			if err := s.process(i+1, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// start returns the time a stage call begins, read only when the stage
// accounts its own elapsed time.
func (st *fusedStage) start() time.Time {
	if st.m == nil {
		return time.Time{}
	}
	return time.Now()
}

func (st *fusedStage) addElapsed(start time.Time) {
	if st.m != nil {
		st.m.AddElapsed(time.Since(start))
	}
}

func (s *fusedStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.src.Close()
	for _, st := range s.stages {
		st.pusher.Close()
	}
}
