package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/planner"
	"gofusion/internal/server"
	"gofusion/internal/sql"
)

// Span names of the layer ladder, one per public layer entry point.
const (
	spanParse    = "sql.parse"
	spanPlan     = "planner.plan"
	spanOptimize = "optimizer.optimize"
	spanLower    = "exec.lower"
	spanExecute  = "exec.execute"
	spanEncode   = "server.encode"
)

// ladderRun is one query executed layer by layer through the engine's
// public functions, the same sequence SessionContext.SQL plus Collect
// runs with the plan and result caches off.
type ladderRun struct {
	layers   map[string]time.Duration
	batches  []*arrow.RecordBatch
	plan     physical.ExecutionPlan
	rows     int64
	poolPeak int64
}

// runLadder executes text on s with one span per layer call under
// parent. With encode set it also renders the rows the way the HTTP
// server does (server.EncodeRows plus JSON marshalling).
func runLadder(s *core.SessionContext, tr *tracer, op int64, parent int32, text string, encode bool) (*ladderRun, error) {
	lr := &ladderRun{layers: map[string]time.Duration{}}
	step := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		end := time.Now()
		tr.add(op, name, parent, start, end)
		lr.layers[name] += end.Sub(start)
		return err
	}
	var stmt sql.Statement
	if err := step(spanParse, func() (err error) { stmt, err = sql.Parse(text); return err }); err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("ladder: not a query: %s", text)
	}
	var lp logical.Plan
	if err := step(spanPlan, func() (err error) {
		lp, err = planner.New(resolver(s), s.Registry()).PlanQuery(sel)
		return err
	}); err != nil {
		return nil, err
	}
	if err := step(spanOptimize, func() (err error) { lp, err = s.OptimizePlan(lp); return err }); err != nil {
		return nil, err
	}
	if err := step(spanLower, func() (err error) { lr.plan, err = exec.CreatePhysicalPlan(lp, plannerConfig(s)); return err }); err != nil {
		return nil, err
	}
	if err := step(spanExecute, func() (err error) {
		ectx, cleanup := execContext(s)
		defer cleanup()
		lr.batches, err = exec.CollectPlan(ectx, lr.plan)
		lr.poolPeak = ectx.Pool.ReservedPeak()
		return err
	}); err != nil {
		return nil, err
	}
	for _, b := range lr.batches {
		lr.rows += int64(b.NumRows())
	}
	if encode {
		return lr, step(spanEncode, func() error {
			_, err := json.Marshal(server.EncodeRows(lr.batches))
			return err
		})
	}
	return lr, nil
}

// resolver resolves "table" and "schema.table" against the session
// catalog, as the session's own SQL entry point does.
func resolver(s *core.SessionContext) planner.TableResolver {
	return func(name string) (logical.TableSource, error) {
		schemaName, tableName := "public", name
		if i := strings.IndexByte(name, '.'); i > 0 {
			schemaName, tableName = name[:i], name[i+1:]
		}
		sp, ok := s.Catalog().SchemaByName(schemaName)
		if !ok {
			return nil, fmt.Errorf("schema %q not found", schemaName)
		}
		t, ok := sp.Table(tableName)
		if !ok {
			return nil, fmt.Errorf("table %q not found", name)
		}
		return t, nil
	}
}

// plannerConfig mirrors the physical planner settings a session lowers
// with.
func plannerConfig(s *core.SessionContext) *exec.PlannerConfig {
	cfg := s.Config()
	return &exec.PlannerConfig{
		TargetPartitions:  cfg.TargetPartitions,
		BatchRows:         cfg.BatchRows,
		ScanReadahead:     cfg.ScanReadahead,
		Reg:               s.Registry(),
		PreferHashJoin:    cfg.PreferHashJoin,
		DisableFusion:     cfg.DisableFusion,
		PageCache:         s.PageCache(),
		WatermarkLateness: cfg.WatermarkLateness,
	}
}

// execContext mirrors the per-query runtime a session builds when no
// memory limit or shared budget is configured: an unbounded tracked
// pool and spilling enabled.
func execContext(s *core.SessionContext) (*physical.ExecContext, func()) {
	cfg := s.Config()
	ectx := physical.NewExecContext()
	ectx.Ctx = context.Background()
	ectx.BatchRows = cfg.BatchRows
	ectx.TargetPartitions = cfg.TargetPartitions
	dm := memory.NewDiskManager(cfg.SpillDir, true)
	ectx.Disk = dm
	return ectx, func() { dm.Close() }
}
