package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/server"
	"gofusion/internal/serverload"
)

const (
	serveClients  = 2
	fuzzQueries   = 20
	preparedEvery = 4
	writeEvery    = 20
	sideTable     = "bench_writes"
	sideSeedRows  = 5 // rows the side table starts with (TPC-H region)
	// serveSetupReps is how many times a serve-mixed run sets up; setup
	// takes about 0.3 s, short enough that a momentary stall moves one
	// setup a lot, so the median is over more setups than for TPC-H.
	serveSetupReps = 5
	ladderReps     = 5
	insertReps     = 50
)

// Request kinds of the serve-mixed schedule.
const (
	kindRead = iota
	kindPrepared
	kindWrite
)

// step is one scheduled client request.
type step struct {
	kind int
	q    int // query index into the pool (reads and prepared replays)
}

// schedule is one client's deterministic request sequence: one write at
// a seeded position in every block of writeEvery requests, and otherwise
// seeded picks from the query pool, every preparedEvery-th of them
// replayed through the client's prepared handle for that query.
type schedule struct {
	pick, slot *rand.Rand
	pool       int
	n          int
	writeAt    int
}

func newSchedule(seed int64, client, pool int) *schedule {
	base := seed*1000 + int64(client)
	return &schedule{
		pick: rand.New(rand.NewSource(base)),
		slot: rand.New(rand.NewSource(base + 500)),
		pool: pool,
	}
}

func (s *schedule) next() step {
	i := s.n % writeEvery
	if i == 0 {
		s.writeAt = s.slot.Intn(writeEvery)
	}
	n := s.n
	s.n++
	switch {
	case i == s.writeAt:
		return step{kind: kindWrite}
	case n%preparedEvery == 0:
		return step{kind: kindPrepared, q: s.pick.Intn(s.pool)}
	default:
		return step{kind: kindRead, q: s.pick.Intn(s.pool)}
	}
}

// serveEnv is one set-up serve-mixed workload: a server configured like
// gofusion-server's defaults, listening on loopback, with the workload's
// datasets and the side table registered and every client's prepared
// handles created.
type serveEnv struct {
	w       *serverload.Workload
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	baseURL string
	hc      *http.Client
	clients []*serveClient
}

// serveClient holds one client's pre-encoded request bodies, plain and
// prepared, per pool query.
type serveClient struct {
	id       int
	session  string
	reads    [][]byte
	prepared [][]byte
}

func setupServe(o options) (*serveEnv, error) {
	w, err := serverload.NewWorkload(o.seed, fuzzQueries)
	if err != nil {
		return nil, err
	}
	scfg := core.DefaultConfig()
	scfg.TargetPartitions = targetPartitions
	scfg.EnablePlanCache = true
	scfg.SpillDir = o.workDir
	srv := server.New(server.Config{Session: scfg})
	e := &serveEnv{w: w, srv: srv, served: make(chan struct{})}
	if err := w.Register(srv.Session()); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e.hs = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // http.ErrServerClosed once close shuts it down
	}()
	e.baseURL = "http://" + ln.Addr().String()
	e.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		MaxConnsPerHost:     serveClients,
		DisableCompression:  true,
	}}
	ctx := context.Background()
	if _, err := e.query(ctx, fmt.Sprintf("CREATE TABLE %s AS SELECT r_regionkey AS k, r_name AS v FROM region", sideTable)); err != nil {
		e.close()
		return nil, fmt.Errorf("creating the side table: %w", err)
	}
	for c := 0; c < serveClients; c++ {
		sc := &serveClient{id: c, session: fmt.Sprintf("client-%d", c)}
		pc := serverload.NewClient(e.baseURL, e.hc, sc.session)
		for _, q := range w.Queries {
			handle, err := pc.Prepare(ctx, q)
			if err != nil {
				e.close()
				return nil, fmt.Errorf("preparing: %w", err)
			}
			read, _ := json.Marshal(map[string]string{"sql": q, "session": sc.session})
			prepared, _ := json.Marshal(map[string]string{"prepared": handle, "session": sc.session})
			sc.reads = append(sc.reads, read)
			sc.prepared = append(sc.prepared, prepared)
		}
		e.clients = append(e.clients, sc)
	}
	// Warm-up: every query once per client, so the plan cache and lazy
	// state are filled before timing.
	for _, sc := range e.clients {
		for q := range w.Queries {
			if _, _, err := e.post(ctx, sc.reads[q], new(bytes.Buffer)); err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up query %d: %w", q, err)
			}
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	e.hc.CloseIdleConnections()
	e.srv.Close()
}

// post sends one /query request body and reads the reply into buf. It
// returns the HTTP status, the client-observed latency, and an error for
// a transport failure or a non-200 reply.
func (e *serveEnv) post(ctx context.Context, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.baseURL+"/query", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, lat, fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return resp.StatusCode, lat, nil
}

// query runs one SQL statement over HTTP outside any timed window and
// decodes the reply.
func (e *serveEnv) query(ctx context.Context, text string) (*serverload.QueryResult, error) {
	return serverload.NewClient(e.baseURL, e.hc, "setup").Query(ctx, text)
}

// reply is what the benchmark keeps of one distinct read result: how
// many replies carried it and one full reply body to check.
type reply struct {
	count int64
	body  []byte
}

// clientLog is one client's record of a window.
type clientLog struct {
	readLat, writeLat []float64         // ms, successful requests
	perQuery          map[int][]float64 // read latency per pool query, ms
	attempted         int64
	failed            int64
	shed              int64
	acked             int64   // acknowledged INSERT rows
	perSecond         []int64 // successful requests per whole second of the window
	replies           map[int]map[uint64]*reply
	failures          []string
	// Traced windows only: per request.
	ops []tracedOp
}

type tracedOp struct {
	kind    int
	q       int
	lat     time.Duration
	elapsed time.Duration
	bytes   int
	planHit bool
}

var replySeed = maphash.MakeSeed()

// resultPrefix is the part of a /query reply that identifies its result:
// everything before the per-request timing and cache fields.
func resultPrefix(body []byte) []byte {
	if i := bytes.Index(body, []byte(`"elapsed_ms":`)); i >= 0 {
		return body[:i]
	}
	return body
}

// runClient drives one closed-loop client until the deadline.
func (e *serveEnv) runClient(sc *serveClient, sched *schedule, start, deadline time.Time, writeBase int64, tr *tracer) *clientLog {
	log := &clientLog{replies: map[int]map[uint64]*reply{}, perQuery: map[int][]float64{},
		perSecond: make([]int64, int(deadline.Sub(start)/time.Second))}
	ctx := context.Background()
	buf := new(bytes.Buffer)
	for n := int64(0); time.Now().Before(deadline); n++ {
		st := sched.next()
		var body []byte
		switch st.kind {
		case kindRead:
			body = sc.reads[st.q]
		case kindPrepared:
			body = sc.prepared[st.q]
		case kindWrite:
			stmt := fmt.Sprintf("INSERT INTO %s VALUES (%d, 'c%d-%d')", sideTable, writeBase+n, sc.id, n)
			body, _ = json.Marshal(map[string]string{"sql": stmt, "session": sc.session})
		}
		log.attempted++
		t0 := time.Now()
		status, lat, err := e.post(ctx, body, buf)
		if err != nil {
			log.failed++
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout {
				log.shed++
			}
			if len(log.failures) < 5 {
				log.failures = append(log.failures, err.Error())
			}
			continue
		}
		if sec := int(time.Since(start) / time.Second); sec < len(log.perSecond) {
			log.perSecond[sec]++
		}
		if st.kind == kindWrite {
			log.acked++
			log.writeLat = append(log.writeLat, ms(lat))
		} else {
			log.readLat = append(log.readLat, ms(lat))
			log.perQuery[st.q] = append(log.perQuery[st.q], ms(lat))
			prefix := resultPrefix(buf.Bytes())
			h := maphash.Bytes(replySeed, prefix)
			byHash := log.replies[st.q]
			if byHash == nil {
				byHash = map[uint64]*reply{}
				log.replies[st.q] = byHash
			}
			if r := byHash[h]; r != nil {
				r.count++
			} else {
				byHash[h] = &reply{count: 1, body: append([]byte(nil), buf.Bytes()...)}
			}
		}
		if tr != nil {
			name := "http.read"
			if st.kind == kindWrite {
				name = "http.write"
			}
			tr.add(tr.nextOp(), name, 0, t0, t0.Add(lat))
			op := tracedOp{kind: st.kind, q: st.q, lat: lat, bytes: buf.Len()}
			var meta struct {
				ElapsedMS float64 `json:"elapsed_ms"`
				PlanHit   bool    `json:"plan_cache_hit"`
			}
			// The timing and cache fields follow the rows; decode only them.
			tail := append([]byte{'{'}, buf.Bytes()[len(resultPrefix(buf.Bytes())):]...)
			if err := json.Unmarshal(tail, &meta); err == nil {
				op.elapsed = time.Duration(meta.ElapsedMS * float64(time.Millisecond))
				op.planHit = meta.PlanHit
			}
			log.ops = append(log.ops, op)
		}
	}
	return log
}

// serveWindow is what one timed window observed, all clients merged.
type serveWindow struct {
	logs    []*clientLog
	spans   *tracer // traced windows only
	elapsed float64
	heapMB  float64
	alloc   uint64
	pc0     core.PlanCacheStats
	pc1     core.PlanCacheStats
}

func (w *serveWindow) sum(f func(*clientLog) int64) int64 {
	var n int64
	for _, l := range w.logs {
		n += f(l)
	}
	return n
}

func (w *serveWindow) lats(f func(*clientLog) []float64) []float64 {
	var out []float64
	for _, l := range w.logs {
		out = append(out, f(l)...)
	}
	return out
}

// qps is the median over the window's whole seconds of the successful
// requests completed in that second, so a short disturbance moves it
// less than it moves the mean.
func (w *serveWindow) qps() float64 {
	var perSecond []float64
	for sec := range w.logs[0].perSecond {
		var n int64
		for _, l := range w.logs {
			n += l.perSecond[sec]
		}
		perSecond = append(perSecond, float64(n))
	}
	if len(perSecond) == 0 {
		ok := w.sum(func(l *clientLog) int64 { return l.attempted - l.failed })
		return float64(ok) / w.elapsed
	}
	return median(perSecond)
}

// runWindow drives every client concurrently for d.
func (e *serveEnv) runWindow(seed int64, window int, d time.Duration, traced bool) *serveWindow {
	w := &serveWindow{logs: make([]*clientLog, len(e.clients))}
	if traced {
		w.spans = newTracer()
	}
	w.pc0, _ = e.srv.Session().PlanCacheStats()
	runtime.GC()
	alloc0 := heapAllocBytes()
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, sc := range e.clients {
		wg.Add(1)
		go func(i int, sc *serveClient) {
			defer wg.Done()
			// Each window continues the client's schedule from a
			// window-specific seed, and writes keys no other window or
			// client uses.
			sched := newSchedule(seed+int64(window)*7919, sc.id, len(e.w.Queries))
			base := (int64(window)*serveClients + int64(sc.id) + 1) * 1_000_000_000
			w.logs[i] = e.runClient(sc, sched, start, deadline, base, w.spans)
		}(i, sc)
	}
	wg.Wait()
	w.elapsed = since(start)
	heap.Stop()
	bounds := []time.Time{start}
	for sec := 1; sec <= int(d/time.Second); sec++ {
		bounds = append(bounds, start.Add(time.Duration(sec)*time.Second))
	}
	w.heapMB = heap.medianPeakMB(bounds)
	w.alloc = heapAllocBytes() - alloc0
	w.pc1, _ = e.srv.Session().PlanCacheStats()
	return w
}

// checkReplies compares every distinct read reply against the serial
// oracle and returns how many replies were wrong.
func checkReplies(o *serverload.Oracle, queries []string, windows []*serveWindow) (int64, []string) {
	var wrong int64
	var notes []string
	for _, w := range windows {
		for _, l := range w.logs {
			for q, byHash := range l.replies {
				for _, r := range byHash {
					var qr serverload.QueryResult
					dec := json.NewDecoder(bytes.NewReader(r.body))
					dec.UseNumber()
					err := dec.Decode(&qr)
					if err == nil {
						err = o.Check(queries[q], &qr)
					}
					if err != nil {
						wrong += r.count
						if len(notes) < 5 {
							notes = append(notes, err.Error())
						}
					}
				}
			}
		}
	}
	return wrong, notes
}

// checkWrites verifies that the side table holds its seed rows plus one
// row per acknowledged INSERT; it returns the number of missing (or
// extra) rows.
func (e *serveEnv) checkWrites(acked int64) (int64, error) {
	res, err := e.query(context.Background(), "SELECT count(*) FROM "+sideTable)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, errors.New("count(*) returned no single cell")
	}
	got, err := strconv.ParseInt(fmt.Sprint(res.Rows[0][0]), 10, 64)
	if err != nil {
		return 0, err
	}
	diff := got - (sideSeedRows + acked)
	if diff < 0 {
		diff = -diff
	}
	return diff, nil
}

// runServe runs serve-mixed.
func runServe(o options) (*result, error) {
	res := &result{}
	var setupSecs []float64
	var env *serveEnv
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	for rep := 0; rep < serveSetupReps; rep++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if env, err = setupServe(o); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupSecs = append(setupSecs, since(start))
	}
	window := time.Duration(o.seconds) * time.Second
	if o.trace {
		window /= 2
	}
	plain := env.runWindow(o.seed, 0, window, false)
	windows := []*serveWindow{plain}
	var tw *serveWindow
	if o.trace {
		tw = env.runWindow(o.seed, 1, window, true)
		windows = append(windows, tw)
	}

	// Checks stay out of the closed loop: the side-table count first,
	// then every distinct reply against the serial oracle.
	var acked, attempted, failed int64
	for _, w := range windows {
		acked += w.sum(func(l *clientLog) int64 { return l.acked })
		attempted += w.sum(func(l *clientLog) int64 { return l.attempted })
		failed += w.sum(func(l *clientLog) int64 { return l.failed })
		for _, l := range w.logs {
			for _, f := range l.failures {
				res.note("request failed: %s", f)
			}
		}
	}
	missing, err := env.checkWrites(acked)
	if err != nil {
		return nil, fmt.Errorf("checking writes: %w", err)
	}
	oracle, err := serverload.NewOracle(env.w, targetPartitions)
	if err != nil {
		return nil, err
	}
	wrong, notes := checkReplies(oracle, env.w.Queries, windows)
	oracle.Close()
	for _, n := range notes {
		res.note("wrong reply: %s", n)
	}
	res.attempted = attempted
	res.failed = failed + wrong + missing
	st := env.srv.Limiter().Stats()

	reads := plain.lats(func(l *clientLog) []float64 { return l.readLat })
	writes := plain.lats(func(l *clientLog) []float64 { return l.writeLat })
	res.note("setup: %d runs, median %.3f s", serveSetupReps, median(setupSecs))
	res.note("untraced window: %d requests in %.2f s (%d reads, %d writes ok), %d failed, %d shed; checks: %d wrong replies, %d missing writes",
		plain.sum(func(l *clientLog) int64 { return l.attempted }), plain.elapsed, len(reads), len(writes),
		plain.sum(func(l *clientLog) int64 { return l.failed }), plain.sum(func(l *clientLog) int64 { return l.shed }), wrong, missing)
	// The latency metrics cover the pool's fixed TPC-H and ClickBench
	// queries, which are the same for every seed; the seeded fuzzsql
	// queries differ in cost from seed to seed and would move the figure
	// more than the engine does. They still run, are checked, count in
	// qps and are reported per query below.
	perQuery := map[int][]float64{}
	fixed := map[int][]float64{}
	for _, l := range plain.logs {
		for q, lat := range l.perQuery {
			perQuery[q] = append(perQuery[q], lat...)
			if q < len(env.w.Queries)-fuzzQueries {
				fixed[q] = append(fixed[q], lat...)
			}
		}
	}
	res.note("e2e qps %.4f 1/s, latency_p50_ms %.4f, latency_p90_ms %.4f (geomean over the %d fixed queries of per-query quantiles), heap_peak_mb %.2f, error_frac %.4g",
		plain.qps(), queryLatency(fixed, 0.5), queryLatency(fixed, 0.9), len(fixed), plain.heapMB,
		float64(res.failed)/float64(max(res.attempted, 1)))
	res.note("all %d queries: latency_p50_ms %.4f, latency_p90_ms %.4f (geomean of per-query quantiles)",
		len(perQuery), queryLatency(perQuery, 0.5), queryLatency(perQuery, 0.9))
	res.note("all reads pooled: read_p50_ms %.4f, read_p90_ms %.4f, read_p99_ms %.4f (n=%d); writes: write_p50_ms %.4f, write_p90_ms %.4f (n=%d)",
		quantile(reads, 0.5), quantile(reads, 0.9), quantile(reads, 0.99), len(reads),
		quantile(writes, 0.5), quantile(writes, 0.9), len(writes))
	for q, text := range env.w.Queries {
		text = strings.Join(strings.Fields(text), " ")
		if len(text) > 60 {
			text = text[:60]
		}
		res.note("query %2d: p50 %8.3f ms, p90 %8.3f ms, n=%5d  %s", q, quantile(perQuery[q], 0.5), quantile(perQuery[q], 0.9), len(perQuery[q]), text)
	}
	if !o.trace {
		res.set("setup_s", median(setupSecs), "s")
		res.set("qps", plain.qps(), "1/s")
		res.set("latency_p50_ms", queryLatency(fixed, 0.5), "ms")
		res.set("latency_p90_ms", queryLatency(fixed, 0.9), "ms")
		res.set("heap_peak_mb", plain.heapMB, "MB")
		res.correct = res.failed == 0
		return res, nil
	}
	if err := serveLayers(o, env, res, plain, tw, st); err != nil {
		return nil, err
	}
	res.correct = res.failed == 0
	return res, nil
}

// queryLadder is the mean per-layer cost of one pool query, measured by
// replaying it layer by layer on the server's engine session. The row
// and row-group counters are summed over the replays; they are only used
// as ratios.
type queryLadder struct {
	layers  map[string]time.Duration
	opSelf  map[string]time.Duration
	scan    int64
	rows    int64
	pruned  int64
	scanned int64
}

// serveLayers fills the per-layer metrics of a traced serve-mixed run.
// The HTTP requests of the traced window give the server-side numbers;
// the engine layers inside the server's execute step are measured by
// replaying every pool query layer by layer on the server's own session
// after the window, weighted by how often the window sent each query.
func serveLayers(o options, env *serveEnv, res *result, plain, tw *serveWindow, st server.LimiterStats) error {
	zeroLayerMetrics(res)
	tr := tw.spans
	s := env.srv.Session()
	ladders := make([]*queryLadder, len(env.w.Queries))
	var poolPeak, spills, violations int64
	for q, text := range env.w.Queries {
		ql := &queryLadder{layers: map[string]time.Duration{}, opSelf: map[string]time.Duration{}}
		for rep := 0; rep < ladderReps; rep++ {
			op := tr.nextOp()
			root := tr.begin(op, "ladder.query", 0)
			lr, err := runLadder(s, tr, op, root, text, true)
			tr.end(root)
			if err != nil {
				return fmt.Errorf("ladder replay of query %d: %w", q, err)
			}
			for k, d := range lr.layers {
				ql.layers[k] += d / ladderReps
			}
			self := map[string]time.Duration{}
			operatorSelf(lr.plan, self)
			for k, d := range self {
				ql.opSelf[k] += d / ladderReps
			}
			scan, pruned, scanned := planCounters(lr.plan)
			ql.scan += scan
			ql.rows += lr.rows
			ql.pruned += pruned
			ql.scanned += scanned
			if err := exec.CheckPlanMetrics(lr.plan, lr.rows); err != nil {
				violations++
			}
			n, _ := exec.PlanSpillStats(lr.plan)
			spills += n
			poolPeak = max(poolPeak, lr.poolPeak)
		}
		ladders[q] = ql
	}
	// core.insert_us: INSERTs through the session's SQL entry point into
	// a table of their own, after the side-table check.
	if _, err := s.SQL("CREATE TABLE bench_ladder_writes AS SELECT r_regionkey AS k, r_name AS v FROM region"); err != nil {
		return err
	}
	var insert time.Duration
	for i := 0; i < insertReps; i++ {
		op := tr.nextOp()
		start := time.Now()
		df, err := s.SQL(fmt.Sprintf("INSERT INTO bench_ladder_writes VALUES (%d, 'ladder')", i))
		if err == nil {
			_, err = df.Collect()
		}
		end := time.Now()
		if err != nil {
			return fmt.Errorf("ladder insert: %w", err)
		}
		tr.add(op, "core.insert", 0, start, end)
		insert += end.Sub(start)
	}

	// Weight the replayed costs by the traced window's reads, and
	// account each request: outside the server's execute step, and the
	// engine layers inside it (plan and optimize only on plan-cache
	// misses).
	var reads, hits float64
	var sumLat, sumOutside, sumEngine, sumBytes float64
	layerSum := map[string]float64{}
	opSum := map[string]float64{}
	var scanRows, resultRows, pruned, scanned int64
	var writeLat, writeExec float64
	var writes float64
	for _, l := range tw.logs {
		for _, r := range l.ops {
			sumLat += float64(r.lat)
			outside := r.lat - r.elapsed
			sumOutside += float64(outside)
			if r.kind == kindWrite {
				writes++
				writeLat += float64(r.lat)
				writeExec += float64(r.elapsed)
				sumEngine += float64(insert / insertReps)
				continue
			}
			reads++
			sumBytes += float64(r.bytes)
			ql := ladders[r.q]
			for k, d := range ql.layers {
				layerSum[k] += float64(d)
			}
			for k, d := range ql.opSelf {
				opSum[k] += float64(d)
			}
			engine := ql.layers[spanParse] + ql.layers[spanLower] + ql.layers[spanExecute] + ql.layers[spanEncode]
			if r.planHit {
				hits++
			} else {
				engine += ql.layers[spanPlan] + ql.layers[spanOptimize]
			}
			sumEngine += float64(engine)
			scanRows += ql.scan
			resultRows += ql.rows
			pruned += ql.pruned
			scanned += ql.scanned
		}
	}
	reads = max(reads, 1)
	total := reads + writes
	perRead := func(name string) float64 { return layerSum[name] / reads }
	res.set("sql.parse_us", perRead(spanParse)/1e3, "us")
	res.set("planner.plan_us", perRead(spanPlan)/1e3, "us")
	res.set("optimizer.optimize_us", perRead(spanOptimize)/1e3, "us")
	res.set("exec.lower_us", perRead(spanLower)/1e3, "us")
	res.set("exec.execute_ms", perRead(spanExecute)/1e6, "ms")
	res.set("server.encode_us", perRead(spanEncode)/1e3, "us")
	for k, d := range opSum {
		res.set("exec.self_ms."+k, d/reads/1e6, "ms")
	}
	res.set("exec.alloc_mb_per_query", float64(tw.alloc)/(1<<20)/total, "MB")
	res.set("exec.scan_rows_per_result_row", float64(scanRows)/float64(max(resultRows, 1)), "ratio")
	if pruned+scanned > 0 {
		res.set("parquet.row_groups_pruned_frac", float64(pruned)/float64(pruned+scanned), "ratio")
	}
	res.set("exec.spill_count", float64(spills), "count")
	res.set("exec.plan_metrics_violations", float64(violations), "count")
	res.failed += violations
	if lookups := (tw.pc1.Hits - tw.pc0.Hits) + (tw.pc1.Misses - tw.pc0.Misses); lookups > 0 {
		res.set("core.plan_cache_hit_ratio", float64(tw.pc1.Hits-tw.pc0.Hits)/float64(lookups), "ratio")
	}
	res.set("core.plan_cache_invalidations", float64(tw.pc1.Invalidations-tw.pc0.Invalidations), "count")
	res.set("core.insert_us", us(insert)/insertReps, "us")
	res.set("server.outside_execute_us", sumOutside/total/1e3, "us")
	res.set("server.response_bytes", sumBytes/reads, "B")
	res.set("server.peak_in_flight", float64(st.PeakInFlight), "count")
	res.set("server.shed", float64(st.ShedFull+st.ShedTimeout), "count")
	res.set("memory.pool_peak_mb", float64(poolPeak)/(1<<20), "MB")
	if sumLat > 0 {
		res.set("trace.unaccounted_frac", (sumLat-sumOutside-sumEngine)/sumLat, "ratio")
	}
	res.set("trace.qps_ratio", tw.qps()/plain.qps(), "ratio")
	res.note("traced window: %.0f reads, %.0f writes in %.2f s; plan-cache hits on %.0f of the reads; write latency mean %.3f ms of which server execute %.3f ms",
		reads, writes, tw.elapsed, hits, writeLat/max(writes, 1)/1e6, writeExec/max(writes, 1)/1e6)
	path := filepath.Join(o.workDir, "trace-"+o.workload+".jsonl")
	if err := tr.writeJSONL(path); err != nil {
		return err
	}
	res.note("spans written to %s", path)
	return nil
}
