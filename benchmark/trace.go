package main

import (
	"bufio"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gofusion/internal/exec"
	"gofusion/internal/physical"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Spans of one operation share Op; Parent is the ID of
// the enclosing span (0 for an operation's root).
type span struct {
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends; it is safe for
// concurrent clients.
type tracer struct {
	t0    time.Time
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp returns a fresh operation ID.
func (t *tracer) nextOp() int64 { return t.ops.Add(1) }

// begin opens a span and returns its ID.
func (t *tracer) begin(op int64, name string, parent int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes the span with the given ID.
func (t *tracer) end(id int32) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval the caller measured itself.
func (t *tracer) add(op int64, name string, parent int32, start, end time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) map[int32]time.Duration {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	var curLo, curHi int64 = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// layerSelf sums self time per span name, and reports the roots' total
// duration and the part of it no child span accounts for.
func layerSelf(spans []span) (byName map[string]time.Duration, rootTotal, rootSelf time.Duration) {
	self := selfTimes(spans)
	byName = map[string]time.Duration{}
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
		if s.Parent == 0 {
			rootTotal += s.dur()
			rootSelf += self[s.ID]
		}
	}
	return byName, rootTotal, rootSelf
}

// operatorSelf adds each operator's self time in an executed plan to
// into, keyed by operator kind. Operators report elapsed_compute
// inclusive of their children and summed across partitions (DESIGN.md
// §8), so a pull-mode operator's self time is its elapsed time minus its
// children's. Fused pipelines differ: each stage of a PipelineExec times
// only its own pushes (already self time), the segment's source is
// inclusive, and the PipelineExec itself keeps the loop that feeds them. A
// negative difference (an exchange whose children ran on producer
// goroutines while it waited less) counts as zero.
func operatorSelf(plan physical.ExecutionPlan, into map[string]time.Duration) {
	if p, ok := plan.(*exec.PipelineExec); ok {
		inner := elapsed(p.Source)
		for _, st := range p.Stages {
			d := elapsed(st)
			into[operatorKind(st)] += d
			inner += d
		}
		into[operatorKind(p)] += max(0, elapsed(p)-inner)
		operatorSelf(p.Source, into)
		return
	}
	var kids time.Duration
	for _, c := range plan.Children() {
		kids += elapsed(c)
		operatorSelf(c, into)
	}
	into[operatorKind(plan)] += max(0, elapsed(plan)-kids)
}

func elapsed(p physical.ExecutionPlan) time.Duration {
	if mp, ok := p.(physical.MetricsProvider); ok {
		return mp.Metrics().Snapshot().Elapsed
	}
	return 0
}

// operatorKind maps an operator to its reported kind name.
func operatorKind(p physical.ExecutionPlan) string {
	t := reflect.TypeOf(p)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	for _, k := range operatorKinds {
		if k == t.Name() {
			return k
		}
	}
	return "other"
}

// planCounters walks an executed plan and sums the scan rows and the
// row-group pruning counters of its table scans.
func planCounters(plan physical.ExecutionPlan) (scanRows, rgPruned, rgScanned int64) {
	var walk func(n physical.ExecutionPlan)
	walk = func(n physical.ExecutionPlan) {
		if s, ok := n.(*exec.TableScanExec); ok {
			snap := s.Metrics().Snapshot()
			scanRows += snap.OutputRows
			rgPruned += snap.ExtraValue("row_groups_pruned")
			rgScanned += snap.ExtraValue("row_groups_scanned")
		}
		if p, ok := n.(*exec.PipelineExec); ok {
			walk(p.Source)
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(plan)
	return scanRows, rgPruned, rgScanned
}
