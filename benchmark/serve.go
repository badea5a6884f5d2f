package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"qpi"
	"qpi/internal/catalog"
	"qpi/internal/service"
	"qpi/internal/sql"
	"qpi/internal/storage"
	"qpi/internal/tpch"
	"qpi/internal/vfs"
	"qpi/internal/zipf"
)

// The four request classes of serve_mix. Out of every ten requests six
// are cheap, one is a miss, two return rows and one is a join; the
// order inside each ten is shuffled from the seed.
const (
	classCheap = iota // cached aggregate
	classMiss         // the same aggregate with a unique literal: plan-cache miss
	classRows         // GROUP BY returning its rows: result encoding
	classJoin         // spilling join under a 2 MiB grant
	numClasses
)

var classNames = [numClasses]string{"cheap", "miss", "rows", "join"}

var classBlock = [10]int{classCheap, classCheap, classCheap, classCheap, classCheap, classCheap,
	classMiss, classRows, classRows, classJoin}

const (
	cheapSQL = "SELECT COUNT(*) c FROM r WHERE r.k < 50"
	rowsSQL  = "SELECT r.k, COUNT(*) c FROM r GROUP BY r.k"
	joinSQL  = "SELECT r.k FROM r JOIN s ON r.k = s.k"

	smallBudget  = 64 << 10
	joinBudget   = 2 << 20
	globalBudget = 3 << 20 // two joins cannot hold grants at once
)

// The measured window numbers its miss literals from 0; warm-up and the
// layer probes draw theirs from ranges it cannot reach.
const (
	warmupLiterals = int64(1) << 40
	probeLiterals  = int64(1) << 41
)

// missSQL is the cheap aggregate with a literal no earlier request
// used, so the plan cache misses; the extra conjunct is always true.
func missSQL(i int64) string {
	return fmt.Sprintf("%s AND r.rowid > %d", cheapSQL, -1-i)
}

// serveWorkload is an in-process service behind a loopback HTTP server.
type serveWorkload struct {
	eng      *qpi.Engine
	svc      *service.Service
	srv      *http.Server
	base     string
	client   *http.Client
	spillFS  *vfs.FaultFS
	wantRows [numClasses]int64
	scanRows [numClasses]int64 // base-table rows one request scans
	tables   [2]*storage.Table // r and s, for the layer probes' catalog
}

const (
	serveDomain = 5000
	serveTries  = 256
)

// serveSpecs are the key columns of r and s. The seed drives the draws;
// which key values are the frequent ones is fixed (PermSeed), because the
// join's size depends on how the two tables' hot keys line up.
func serveSpec(table int) tpch.ColumnSpec {
	return tpch.ColumnSpec{Name: "k", Domain: serveDomain, Z: 1, PermSeed: int64(table + 1)}
}

// joinSize is the size of r ⋈ s on the key columns given.
func joinSize(r, s []int64) float64 {
	var counts [2][serveDomain + 1]float64
	for _, k := range r {
		counts[0][k]++
	}
	for _, k := range s {
		counts[1][k]++
	}
	size := 0.0
	for k := range counts[0] {
		size += counts[0][k] * counts[1][k]
	}
	return size
}

// serveTables draws r and s. Even with the hot keys fixed, the join's
// size varies by 8% either way from one draw to the next, and the join
// class's time and allocation with it. Draw seeds derived from the seed
// are tried in turn until the join's size is within 1.5% of its
// expectation, rows² × Σ P_r(k)·P_s(k) (about one draw in four).
// Candidates are screened on the key columns alone, drawn the way
// tpch.SkewedTable draws its first column; the tables are checked
// against the same band, so a change to that generator cannot go
// unnoticed.
func serveTables(cfg config) (tables [2]*storage.Table, err error) {
	rows := int(50000 * cfg.scale)
	expected := 0.0
	{
		r, s := serveSpec(0), serveSpec(1)
		pr, ps := zipf.MustNew(r.Domain, r.Z, 0, r.PermSeed), zipf.MustNew(s.Domain, s.Z, 0, s.PermSeed)
		for k := int64(1); k <= serveDomain; k++ {
			expected += pr.ValueProb(k) * ps.ValueProb(k)
		}
		expected *= float64(rows) * float64(rows)
	}
	inBand := func(size float64) bool { return math.Abs(size-expected) <= 0.015*expected }

	for try := int64(0); try < serveTries; try++ {
		seed := 2 * (cfg.seed*serveTries + try) // r's; s takes the next
		var keys [2][]int64
		for i := range keys {
			sp := serveSpec(i)
			keys[i] = zipf.MustNew(sp.Domain, sp.Z, seed+int64(i), sp.PermSeed).Draw(rows, nil)
		}
		if !inBand(joinSize(keys[0], keys[1])) {
			continue
		}
		for i, name := range []string{"r", "s"} {
			if tables[i], err = tpch.SkewedTable(name, rows, seed+int64(i), serveSpec(i)); err != nil {
				return tables, err
			}
		}
		if size := joinSize(column(tables[0], "k"), column(tables[1], "k")); !inBand(size) {
			return tables, fmt.Errorf("serve_mix: the key columns drawn for screening are not the generator's (draw seed %d: join of %.0f rows)", seed, size)
		}
		return tables, nil
	}
	return tables, fmt.Errorf("serve_mix: none of %d draws gave a join within 1.5%% of %.0f rows at seed %d", serveTries, expected, cfg.seed)
}

func setupServe(cfg config) (*serveWorkload, error) {
	tables, err := serveTables(cfg)
	if err != nil {
		return nil, err
	}
	// The tables reach the engine the way a user's data does.
	eng := qpi.New()
	for _, t := range tables {
		if err := loadPublic(eng, t, true); err != nil {
			return nil, err
		}
	}
	rows := tables[0].NumRows()
	fs, err := newSpillFS(cfg)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{
		Engine:       eng,
		GlobalBudget: globalBudget,
		QueryBudget:  smallBudget,
		QueueTimeout: time.Minute, // queueing, not rejection, is under test
		SpillFS:      fs,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &serveWorkload{
		eng:      eng,
		svc:      svc,
		srv:      &http.Server{Handler: svc.Handler()},
		base:     "http://" + ln.Addr().String(),
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		spillFS:  fs,
		tables:   tables,
		scanRows: [numClasses]int64{int64(rows), int64(rows), int64(rows), 2 * int64(rows)},
	}
	go func() { _ = w.srv.Serve(ln) }()
	return w, nil
}

// reference computes each class's correct row count in process.
func (w *serveWorkload) reference() error {
	for c, text := range [numClasses]string{cheapSQL, missSQL(0), rowsSQL, joinSQL} {
		q, err := w.eng.Query(text)
		if err != nil {
			return err
		}
		if w.wantRows[c], err = q.Run(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

// stop shuts the service and the server down and waits for both.
func (w *serveWorkload) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.svc.Shutdown(ctx)
	if e := w.srv.Shutdown(ctx); err == nil {
		err = e
	}
	w.client.CloseIdleConnections()
	return err
}

// reply is the part of a /v1/query response the client checks.
type reply struct {
	State     string  `json:"state"`
	Rows      int64   `json:"rows"`
	Data      [][]any `json:"data"`
	QueuedMs  float64 `json:"queued_ms"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// post sends one request of the given class and returns the decoded
// reply, the client-side wall time and what was wrong with it, if
// anything.
func (w *serveWorkload) post(class int, seq int64) (rep reply, wall time.Duration, status int, problem string) {
	req := map[string]any{"sql": cheapSQL, "budget_bytes": smallBudget}
	switch class {
	case classMiss:
		req["sql"] = missSQL(seq)
	case classRows:
		req["sql"], req["want_rows"] = rowsSQL, true
	case classJoin:
		req["sql"], req["budget_bytes"] = joinSQL, joinBudget
	}
	body, _ := json.Marshal(req)
	t0 := time.Now()
	resp, err := w.client.Post(w.base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, time.Since(t0), 0, err.Error()
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	wall = time.Since(t0)
	switch {
	case resp.StatusCode != http.StatusOK:
		problem = fmt.Sprintf("status %d", resp.StatusCode)
	case err != nil:
		problem = err.Error()
	case rep.State != "done":
		problem = "state " + rep.State
	case rep.Rows != w.wantRows[class]:
		problem = fmt.Sprintf("%d rows, want %d", rep.Rows, w.wantRows[class])
	case class == classRows && int64(len(rep.Data)) != rep.Rows:
		problem = fmt.Sprintf("%d rows of data for a count of %d", len(rep.Data), rep.Rows)
	}
	return rep, wall, resp.StatusCode, problem
}

// sequence hands out request classes in the seeded order. Each block of
// ten holds exactly the mix, so class shares do not drift with the
// window's length.
type sequence struct {
	mu    sync.Mutex
	rng   *rand.Rand
	block [10]int
	next  int64
}

func newSequence(seed int64) *sequence {
	return &sequence{rng: rand.New(rand.NewSource(seed)), block: classBlock}
}

func (s *sequence) take() (seq int64, class int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next%10 == 0 {
		s.rng.Shuffle(10, func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	seq, class = s.next, s.block[s.next%10]
	s.next++
	return seq, class
}

// clientStats is one client's measurements (clients do not share them
// while they run), or all clients' taken together.
type clientStats struct {
	wall, queued, elapsed, overhead [numClasses]samples
	tracedWall, untracedWall        samples // cheap class, by whether spans were recorded
	attempted, failed, rejected     int64
	scanned                         int64
	problems                        []string
}

// drive runs the closed loop: each of n clients sends its next request
// only after the previous one's reply. The first client also times the
// yardstick between its requests.
func (w *serveWorkload) drive(n int, window time.Duration, seq *sequence, tl *traceLog, yard *yardstick) (all clientStats) {
	stats := make([]clientStats, n)
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(st *clientStats, first bool) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if first {
					yard.tick()
				}
				i, class := seq.take()
				// Spans are recorded for every other block of ten, so
				// the traced run can price its own tracing.
				record := tl != nil && (i/10)%2 == 0
				t0 := time.Now()
				rep, wall, status, problem := w.post(class, i)
				st.attempted++
				if problem != "" {
					st.failed++
					if status == http.StatusTooManyRequests {
						st.rejected++
					}
					if len(st.problems) < 4 {
						st.problems = append(st.problems, classNames[class]+": "+problem)
					}
					continue
				}
				st.scanned += w.scanRows[class]
				st.wall[class].addDur(wall)
				st.queued[class].add(rep.QueuedMs)
				st.elapsed[class].add(rep.ElapsedMs)
				over := ms(wall) - rep.QueuedMs - rep.ElapsedMs
				st.overhead[class].add(over)
				if class == classCheap && tl != nil {
					if record {
						st.tracedWall.addDur(wall)
					} else {
						st.untracedWall.addDur(wall)
					}
				}
				if record {
					// The server reports how long the request queued and
					// ran, not when; the two are laid out back to back in
					// the middle of the client's interval.
					root := tl.add(0, "client", classNames[class], t0, t0.Add(wall))
					qs := t0.Add(time.Duration(over / 2 * float64(time.Millisecond)))
					qe := qs.Add(time.Duration(rep.QueuedMs * float64(time.Millisecond)))
					tl.add(root, "service", "queue", qs, qe)
					tl.add(root, "service", "execute", qe, qe.Add(time.Duration(rep.ElapsedMs*float64(time.Millisecond))))
				}
			}
		}(&stats[c], c == 0)
	}
	wg.Wait()
	for _, st := range stats {
		for c := 0; c < numClasses; c++ {
			all.wall[c] = append(all.wall[c], st.wall[c]...)
			all.queued[c] = append(all.queued[c], st.queued[c]...)
			all.elapsed[c] = append(all.elapsed[c], st.elapsed[c]...)
			all.overhead[c] = append(all.overhead[c], st.overhead[c]...)
		}
		all.tracedWall = append(all.tracedWall, st.tracedWall...)
		all.untracedWall = append(all.untracedWall, st.untracedWall...)
		all.attempted += st.attempted
		all.failed += st.failed
		all.rejected += st.rejected
		all.scanned += st.scanned
		all.problems = append(all.problems, st.problems...)
	}
	return all
}

// layerProbes times the calls a request makes into sql and the plan
// cache on their own, against a catalog holding the same tables.
func (w *serveWorkload) layerProbes(rep *report) error {
	cat := catalog.New()
	for _, t := range w.tables {
		cat.Register(t)
	}
	var parse, planT, hit, miss samples
	cache := service.NewPlanCache(256)
	if _, _, err := cache.Get(w.eng, cheapSQL); err != nil {
		return err
	}
	for i := int64(0); i < 200; i++ {
		text := missSQL(probeLiterals + i)
		t0 := time.Now()
		stmt, err := sql.Parse(text)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := sql.Plan(stmt, cat); err != nil {
			return err
		}
		t2 := time.Now()
		parse.add(us(t1.Sub(t0)))
		planT.add(us(t2.Sub(t1)))

		t0 = time.Now()
		_, wasHit, err := cache.Get(w.eng, cheapSQL)
		t1 = time.Now()
		if err != nil || !wasHit {
			return fmt.Errorf("plan cache: repeated statement missed (%v)", err)
		}
		_, wasHit, err = cache.Get(w.eng, text)
		t2 = time.Now()
		if err != nil || wasHit {
			return fmt.Errorf("plan cache: fresh statement hit (%v)", err)
		}
		hit.add(us(t1.Sub(t0)))
		miss.add(us(t2.Sub(t1)))
	}
	rep.set("sql.parse_us", parse.median(), len(parse))
	rep.set("sql.plan_us", planT.median(), len(planT))
	rep.set("service.plancache_hit_us", hit.median(), len(hit))
	rep.set("service.plancache_miss_us", miss.median(), len(miss))
	return nil
}

func runServeMix(cfg config) (*report, error) {
	goroutines := runtime.NumGoroutine()
	rep, err := newReport()
	if err != nil {
		return nil, err
	}
	w, err := timedSetup(rep,
		func() (*serveWorkload, error) { return setupServe(cfg) },
		func(old *serveWorkload) { _ = old.stop() })
	if err != nil {
		return nil, err
	}
	tl, err := w.measure(cfg, rep)
	if stopErr := w.stop(); stopErr != nil {
		rep.invariant("shutdown did not drain: %v", stopErr)
	}
	if err != nil {
		return nil, err
	}
	leakCheck(rep, goroutines, w.spillFS)
	return rep, tl.write(cfg.outDir, "serve_mix")
}

// measure warms the service up, drives the closed loop for the window
// and fills the report. It returns the trace log of a traced run.
func (w *serveWorkload) measure(cfg config, rep *report) (*traceLog, error) {
	if err := w.reference(); err != nil {
		return nil, err
	}
	clients := min(runtime.NumCPU(), 2)

	// Warm-up: plan cache, connection pool, buffer pools.
	warm := newSequence(cfg.seed + 1)
	for i := 0; i < 10*warmupIters; i++ {
		seq, class := warm.take()
		if _, _, _, problem := w.post(class, warmupLiterals+seq); problem != "" {
			return nil, fmt.Errorf("serve_mix warm-up: %s: %s", classNames[class], problem)
		}
	}

	var tl *traceLog
	if cfg.trace {
		tl = newTraceLog()
	}
	before := w.svc.Stats()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	t0 := time.Now()
	all := w.drive(clients, cfg.window, newSequence(cfg.seed), tl, rep.yard)
	elapsed := time.Since(t0).Seconds()
	runtime.ReadMemStats(&memAfter)
	after := w.svc.Stats()
	for _, p := range all.problems {
		rep.invariant("serve_mix %s", p)
	}
	rep.attempted, rep.failed = all.attempted, all.failed
	done := all.attempted - all.failed
	for c := 0; c < numClasses; c++ {
		if len(all.wall[c]) == 0 {
			return nil, fmt.Errorf("window %s too short: no %s request completed", cfg.window, classNames[c])
		}
	}
	if after.Failed != before.Failed || after.Cancelled != before.Cancelled {
		rep.invariant("service counted %d failed and %d cancelled sessions", after.Failed-before.Failed, after.Cancelled-before.Cancelled)
	}
	if after.Admission.PeakGranted > after.Admission.Budget {
		rep.invariant("admission granted %d of a %d budget", after.Admission.PeakGranted, after.Admission.Budget)
	}
	if after.SpillBytes == before.SpillBytes {
		rep.invariant("the join class never spilled")
	}

	join := all.wall[classJoin]
	if !cfg.trace {
		rep.set("query_p50_ms", join.median(), len(join))
		rep.set("query_p90_ms", join.p90(), len(join))
		if !join.supportsP90() {
			rep.notes = append(rep.notes, fmt.Sprintf("query_p90_ms unsupported: %d samples", len(join)))
		}
		rep.set("baseline_p50_ms", all.wall[classCheap].median(), len(all.wall[classCheap]))
		rep.set("input_rows_per_s", float64(all.scanned)/elapsed, int(done))
		rep.set("alloc_mb_per_query", float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/(1<<20)/float64(done), int(done))
	} else {
		if err := w.layerProbes(rep); err != nil {
			return nil, err
		}
		// Only joins ask for a grant large enough to wait for.
		queued := all.queued[classJoin]
		var overhead samples
		for c := 0; c < numClasses; c++ {
			overhead = append(overhead, all.overhead[c]...)
		}
		joins := float64(len(join))
		rep.set("exec.tuples_moved", float64(after.TuplesProcessed-before.TuplesProcessed)/float64(done), int(done))
		rep.set("exec.spill_files", float64(after.SpillFiles-before.SpillFiles)/joins, len(join))
		rep.set("exec.spill_bytes", float64(after.SpillBytes-before.SpillBytes)/joins, len(join))
		rep.set("obs.trace_events", float64(len(tl.spans)), 1)
		rep.set("obs.trace_overhead_ratio", all.tracedWall.median()/all.untracedWall.median(), len(all.tracedWall))
		rep.set("service.queued_ms_p50", queued.median(), len(queued))
		rep.set("service.queued_ms_p90", queued.p90(), len(queued))
		rep.set("service.elapsed_ms_p50.cheap", all.elapsed[classCheap].median(), len(all.elapsed[classCheap]))
		rep.set("service.elapsed_ms_p50.rows", all.elapsed[classRows].median(), len(all.elapsed[classRows]))
		rep.set("service.elapsed_ms_p50.join", all.elapsed[classJoin].median(), len(all.elapsed[classJoin]))
		rep.set("service.http_overhead_ms_p50", overhead.median(), len(overhead))
		lookups := float64(after.PlanCache.Hits + after.PlanCache.Misses - before.PlanCache.Hits - before.PlanCache.Misses)
		rep.set("service.plancache_hit_rate", float64(after.PlanCache.Hits-before.PlanCache.Hits)/lookups, int(lookups))
		rep.set("service.peak_queue_depth", float64(after.Admission.PeakQueueDepth), 1)
		rep.set("service.peak_granted_bytes", float64(after.Admission.PeakGranted), 1)
		rep.set("service.rejected_429", float64(all.rejected), int(all.attempted))
		rep.set("client.req_per_s", float64(done)/elapsed, int(done))
		rep.set("client.cheap_req_p50_ms", all.wall[classCheap].median(), len(all.wall[classCheap]))
		rep.set("client.miss_req_p50_ms", all.wall[classMiss].median(), len(all.wall[classMiss]))
		rep.set("client.rows_req_p50_ms", all.wall[classRows].median(), len(all.wall[classRows]))
		rep.set("client.join_req_p50_ms", join.median(), len(join))
		rep.set("client.join_req_p90_ms", join.p90(), len(join))
		rep.set("runtime.allocs_per_query", float64(memAfter.Mallocs-memBefore.Mallocs)/float64(done), int(done))
		rep.set("runtime.gc_pause_ms", float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs)/1e6/float64(done), int(done))
		rep.set("runtime.heap_peak_mb", float64(memAfter.HeapSys-memAfter.HeapReleased)/(1<<20), 1)
		tl.finish()
	}
	return tl, nil
}
