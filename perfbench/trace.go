package main

// The traced run's per-layer probes. Every call the benchmark makes
// into a netsim, matrix or patterns entry point is in this file, so a
// refactor of those entry points touches only this file; the
// end-to-end runner sees nothing but twserve's flags, its routes and
// the internal/api wire types.
//
// Each probe times calls into one layer's public functions and
// records a span around each call. Spans stay in memory, share a
// request ID per probe iteration, and are written to spans.jsonl in
// the run directory at the end. A span's self time is its duration
// minus its children's; a layer that can only be entered through the
// one above it (serve through api, api through netsim) gets its self
// time as the difference of the two medians.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/matrix"
	"repro/internal/modules"
	"repro/internal/netsim"
	"repro/internal/patterns"
	"repro/internal/player"
	"repro/internal/serve"
)

// span is one timed call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so
// the same probe code runs traced and untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

func (t *tracer) begin(req, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// timed runs fn inside a span.
func (t *tracer) timed(req, parent int, name string, fn func()) {
	id := t.begin(req, parent, name)
	fn()
	t.end(id)
}

// stat is a span name's sample count and median duration and self
// time, in ms.
type stat struct {
	n          int
	total, own float64
}

// stats summarizes every span name.
func (t *tracer) stats() map[string]stat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range t.spans {
		durs[s.Name] = append(durs[s.Name], ms(time.Duration(s.End-s.Start)))
		selfs[s.Name] = append(selfs[s.Name], ms(time.Duration(s.End-s.Start-child[s.ID])))
	}
	out := map[string]stat{}
	for name, d := range durs {
		out[name] = stat{n: len(d), total: median(d), own: median(selfs[name])}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(fh)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			fh.Close()
			return err
		}
	}
	return fh.Close()
}

// spanCost is the median cost of recording one span, in ns.
func spanCost() float64 {
	const pairs = 10_000
	t := newTracer()
	var per []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < pairs; i++ {
			t.end(t.begin(0, 0, "span"))
		}
		per = append(per, float64(time.Since(t0))/pairs)
	}
	return median(per)
}

// allocs measures heap allocations and bytes across fn. Probes run
// one at a time, so the process-wide counters belong to fn.
func allocs(fn func()) (n, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// layerMetrics accumulates the traced run's per-layer readings.
type layerMetrics struct {
	m    map[string]metric
	rows []string // report order
	note map[string]string
}

func (lm *layerMetrics) set(name, unit string, v float64, note string) {
	if _, ok := lm.m[name]; !ok {
		lm.rows = append(lm.rows, name)
	}
	lm.m[name] = metric{v, unit}
	lm.note[name] = note
}

// traceRun runs every per-layer probe after the end-to-end phases and
// returns the per-layer metrics. Probe sizes scale with the run's
// measured seconds up to 30 s.
func traceRun(ctx context.Context, fl *fleet, in *inputs, rec *recorder, h mixHealth, dir string, seconds float64, out io.Writer) (map[string]metric, error) {
	lm := &layerMetrics{m: map[string]metric{}, note: map[string]string{}}
	tr := newTracer()
	coldIters := max(3, min(30, int(seconds)))
	fastIters := 30 * coldIters

	// Harness health and per-class counts from the end-to-end phases.
	lm.set("loadgen.late_p50_ms", "ms", quantile(rec.late, 0.5), fmt.Sprintf("n=%d", len(rec.late)))
	lm.set("loadgen.achieved_ratio", "ratio", h.achieved/h.offered, fmt.Sprintf("%.1f of %d req/s", h.achieved, mixRate))
	for _, c := range []struct{ name, class string }{
		{"cold", "cold"}, {"stream", "stream"}, {"warm", "warm"}, {"module", "module"},
		{"player_write", "player.submit"}, {"player_read", "player.progress"},
	} {
		xs := rec.samples[c.class]
		if len(xs) == 0 {
			return nil, fmt.Errorf("no %s samples; run longer", c.class)
		}
		lm.set("n."+c.name, "count", float64(len(xs)), "")
		lm.set("p90_ms."+c.name, "ms", quantile(xs, 0.9), "")
		lm.set("p99_ms."+c.name, "ms", quantile(xs, 0.99), "")
	}
	hits, err := cacheHitRatio(ctx, fl.front)
	if err != nil {
		return nil, err
	}
	lm.set("api.cache_hit_ratio", "ratio", hits, "GET /v1/cache after the run")

	if err := probeCompute(ctx, tr, lm, in, coldIters); err != nil {
		return nil, err
	}
	if err := probeServe(ctx, tr, lm, filepath.Join(dir, "trace-players"), fastIters); err != nil {
		return nil, err
	}
	if err := probeCluster(ctx, tr, lm, in, fl.backends[0], fastIters); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(dir, "spans.jsonl")); err != nil {
		return nil, err
	}

	fmt.Fprintf(out, "%-36s %14s %-6s %s\n", "per-layer metric", "value", "unit", "samples / self / note")
	for _, name := range lm.rows {
		m := lm.m[name]
		fmt.Fprintf(out, "%-36s %14.4f %-6s %s\n", name, m.Value, m.Unit, lm.note[name])
	}
	return lm.m, nil
}

func cacheHitRatio(ctx context.Context, base string) (float64, error) {
	c := newClient(base, 1)
	defer c.close()
	r, err := c.do(ctx, http.MethodGet, "/v1/cache", nil)
	if err = expectOK(r, err); err != nil {
		return 0, fmt.Errorf("GET /v1/cache: %w", err)
	}
	var st api.CacheStats
	if err := json.Unmarshal(r.body, &st); err != nil {
		return 0, err
	}
	if st.Hits+st.Misses == 0 {
		return 0, fmt.Errorf("GET /v1/cache: no lookups recorded")
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses), nil
}

// pipeline is the cold generate path api runs, called layer by layer:
// netsim generation, matrix windowing, patterns window readings, the
// matrix aggregate fold and the patterns aggregate readings.
type pipeline struct {
	arena   *netsim.Arena
	scn     netsim.Scenario
	net     *netsim.Network
	zones   patterns.Zones
	roles   patterns.DDoSRoles
	p       netsim.Params
	workers int
}

func newPipeline() (*pipeline, error) {
	scn, err := netsim.ParseSpec(coldSpec)
	if err != nil {
		return nil, err
	}
	req := loadShape(coldSpec, 0)
	net := netsim.ScaledNetwork(req.Hosts)
	zones, err := net.Zones()
	if err != nil {
		return nil, err
	}
	roles, err := patterns.AssignDDoSRoles(zones)
	if err != nil {
		return nil, err
	}
	return &pipeline{
		arena: netsim.NewArena(), scn: scn, net: net, zones: zones, roles: roles,
		p:       netsim.Params{Duration: req.Duration, Rate: req.Rate, Scale: req.Scale}.Normalized(),
		workers: runtime.NumCPU(), // twserve's default: all CPUs
	}, nil
}

// run is one traced cold generate; it returns the event count, the
// aggregate's stored cells and the generation's allocations.
func (pl *pipeline) run(ctx context.Context, t *tracer, seed int64) (events, nnz int, genAllocs, genBytes float64, err error) {
	req := t.request()
	root := t.begin(req, 0, "pipeline")
	defer t.end(root)
	var trace netsim.Trace
	genAllocs, genBytes = allocs(func() {
		t.timed(req, root, "netsim.generate_trace", func() {
			trace, err = netsim.GenerateTraceArena(ctx, pl.arena, pl.scn, pl.net, seed, pl.workers, pl.p)
		})
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var windows []netsim.SparseWindow
	t.timed(req, root, "matrix.windows_csr", func() {
		windows, err = trace.WindowsCSRArena(ctx, pl.arena, pl.net, loadShape(coldSpec, 0).Window, pl.p.Duration)
	})
	if err != nil {
		pl.arena.ReleaseTrace(trace)
		return 0, 0, 0, 0, err
	}
	t.timed(req, root, "patterns.window_classify", func() {
		for _, w := range windows {
			if w.Matrix.NNZ() == 0 {
				continue
			}
			patterns.ClassifyAttackStageOf(w.Matrix, pl.zones)
			patterns.ClassifyDDoSOf(w.Matrix, pl.roles)
			matrix.SupernodesOf(w.Matrix, patterns.SupernodeFanThreshold)
		}
	})
	var csr *matrix.CSR
	t.timed(req, root, "matrix.aggregate_csr", func() {
		csr, _ = trace.SparseMatrixArena(pl.arena, pl.net)
	})
	events = len(trace)
	pl.arena.ReleaseTrace(trace)
	t.timed(req, root, "patterns.aggregate_classify", func() {
		matrix.ProfileOf(csr)
		patterns.ClassifyBehaviorOf(csr, pl.zones)
		patterns.ClassifyTopologyOf(csr, pl.zones)
		patterns.ClassifyAttackStageOf(csr, pl.zones)
		patterns.ClassifyMixtureOf(csr, pl.zones)
	})
	return events, csr.NNZ(), genAllocs, genBytes, nil
}

// stream is one traced netsim stream: first sealed window and total.
func (pl *pipeline) stream(ctx context.Context, t *tracer, seed int64) (first, total time.Duration, err error) {
	req := t.request()
	id := t.begin(req, 0, "netsim.stream_csr")
	defer t.end(id)
	start := time.Now()
	_, _, err = netsim.StreamCSRArena(ctx, pl.arena, pl.scn, pl.net, seed, pl.workers, pl.p,
		loadShape(coldSpec, 0).Window, pl.p.Duration,
		func(k int, w netsim.SparseWindow) error {
			if k == 0 {
				first = time.Since(start)
			}
			return nil
		})
	return first, time.Since(start), err
}

// probeCompute measures the cold path: the layer-by-layer pipeline
// (traced, alternating with untraced runs to price the tracing), the
// same request through api.Service, netsim and api streams, and api
// cache hits.
func probeCompute(ctx context.Context, tr *tracer, lm *layerMetrics, in *inputs, iters int) error {
	pl, err := newPipeline()
	if err != nil {
		return err
	}
	svc := api.New()
	seed := func(i int) int64 { return in.coldSeed(1_000_000/2 + i) }
	// Warm-up: first-use costs (arena slabs, lazy tables) stay out of
	// the medians.
	if _, _, _, _, err := pl.run(ctx, nil, seed(-1)); err != nil {
		return err
	}
	if _, err := svc.Generate(ctx, loadShape(coldSpec, seed(-2))); err != nil {
		return err
	}

	var events, nnz, gAllocs, gBytes, untraced, missMS, missAllocs, missBytes []float64
	for i := 0; i < iters; i++ {
		e, z, a, b, err := pl.run(ctx, tr, seed(3*i))
		if err != nil {
			return err
		}
		events, nnz = append(events, float64(e)), append(nnz, float64(z))
		gAllocs, gBytes = append(gAllocs, a), append(gBytes, b)

		t0 := time.Now()
		if _, _, _, _, err := pl.run(ctx, nil, seed(3*i+1)); err != nil {
			return err
		}
		untraced = append(untraced, ms(time.Since(t0)))

		var d time.Duration
		a, b = allocs(func() {
			req := tr.request()
			id := tr.begin(req, 0, "api.generate_miss")
			t0 := time.Now()
			_, err = svc.Generate(ctx, loadShape(coldSpec, seed(3*i+2)))
			d = time.Since(t0)
			tr.end(id)
		})
		if err != nil {
			return err
		}
		missMS, missAllocs, missBytes = append(missMS, ms(d)), append(missAllocs, a), append(missBytes, b)
	}
	st := tr.stats()
	n := fmt.Sprintf("n=%d", iters)
	gen := st["netsim.generate_trace"]
	lm.set("netsim.generate_trace_ms", "ms", gen.total, n)
	lm.set("netsim.events_per_op", "count", median(events), n)
	lm.set("netsim.allocs_per_op", "count", median(gAllocs), n)
	lm.set("netsim.bytes_per_op", "B", median(gBytes), n)
	win, agg := st["matrix.windows_csr"], st["matrix.aggregate_csr"]
	lm.set("matrix.windows_csr_ms", "ms", win.total, n+"; Trace.WindowsCSRArena")
	lm.set("matrix.aggregate_csr_ms", "ms", agg.total, n+"; Trace.SparseMatrixArena")
	lm.set("matrix.nnz_per_op", "count", median(nnz), n)
	wc, ac := st["patterns.window_classify"], st["patterns.aggregate_classify"]
	lm.set("patterns.window_classify_us", "us", 1000*wc.total, n+"; every window of one run")
	lm.set("patterns.aggregate_classify_us", "us", 1000*ac.total, n)
	root := st["pipeline"]
	miss := median(missMS)
	lm.set("api.generate_miss_ms", "ms", miss, n)
	layers := gen.total + win.total + wc.total + agg.total + ac.total
	lm.set("api.self_ms", "ms", miss-layers, fmt.Sprintf("api miss minus the medians of its layers (%.3f ms); pipeline self %.3f ms", layers, root.own))
	lm.set("api.miss_allocs_per_op", "count", median(missAllocs), n)
	lm.set("api.miss_bytes_per_op", "B", median(missBytes), n)
	lm.set("trace.overhead_pct", "%", 100*(root.total/median(untraced)-1),
		fmt.Sprintf("traced pipeline %.3f ms vs the same pipeline untraced %.3f ms, alternated", root.total, median(untraced)))
	lm.set("trace.span_ns", "ns", spanCost(), "one begin/end pair on a throwaway tracer; a pipeline run records 6")

	// Streams: netsim directly, then through api.
	streams := max(3, iters/2)
	var nFirst, nTotal, aFirst []float64
	for i := 0; i < streams; i++ {
		first, total, err := pl.stream(ctx, tr, seed(3*iters+i))
		if err != nil {
			return err
		}
		nFirst, nTotal = append(nFirst, ms(first)), append(nTotal, ms(total))
		req := tr.request()
		id := tr.begin(req, 0, "api.generate_stream")
		start, firstFrame := time.Now(), time.Duration(0)
		err = svc.GenerateStream(ctx, loadShape(coldSpec, seed(4*iters+i)), func(f api.StreamFrame) error {
			if f.Type == api.FrameWindow && firstFrame == 0 {
				firstFrame = time.Since(start)
			}
			return nil
		})
		tr.end(id)
		if err != nil {
			return err
		}
		aFirst = append(aFirst, ms(firstFrame))
	}
	sn := fmt.Sprintf("n=%d", streams)
	lm.set("netsim.stream_first_window_ms", "ms", median(nFirst), sn+"; StreamCSRArena")
	lm.set("netsim.stream_total_ms", "ms", median(nTotal), sn)
	lm.set("api.stream_first_frame_ms", "ms", median(aFirst), sn+"; first window frame")

	// Hits: the lesson's composed spec, computed once above the loop.
	warm := loadShape(coldSpec, seed(-2))
	hits := make([]float64, 0, 10*iters)
	a, b := allocs(func() {
		for i := 0; i < cap(hits); i++ {
			req := tr.request()
			id := tr.begin(req, 0, "api.generate_hit")
			t0 := time.Now()
			_, err = svc.Generate(ctx, warm)
			hits = append(hits, ms(time.Since(t0)))
			tr.end(id)
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	hn := fmt.Sprintf("n=%d", len(hits))
	lm.set("api.generate_hit_us", "us", 1000*median(hits), hn+"; mostly the per-call result copy")
	lm.set("api.hit_allocs_per_op", "count", a/float64(len(hits)), hn)
	lm.set("api.hit_bytes_per_op", "B", b/float64(len(hits)), hn)
	return nil
}

// probeServe measures the serve layer (in-process handlers), the api
// calls behind them, modules and the player engine over a DirStore.
func probeServe(ctx context.Context, tr *tracer, lm *layerMetrics, storeDir string, iters int) error {
	ds, err := player.NewDirStore(filepath.Join(storeDir, "serve"))
	if err != nil {
		return err
	}
	svc := api.New(api.WithPlayers(player.NewEngine(ds)))
	mux := serve.NewMux(svc)
	warm := loadShape(coldSpec, 7)
	if _, err := svc.Generate(ctx, warm); err != nil {
		return err
	}
	warmBody, moduleBody := mustJSON(warm), mustJSON(api.ModuleRequest{Pattern: playerPattern})

	size := map[string]int{}
	// handle sends one request through the mux inside a span named
	// serve.<name> and keeps the response size.
	handle := func(name, method, path string, body []byte) ([]byte, error) {
		id := tr.begin(tr.request(), 0, "serve."+name)
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(method, path, bytesReader(body)))
		tr.end(id)
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("serve %s %s: status %d: %s", method, path, w.Code, w.Body.Bytes())
		}
		size[name] = w.Body.Len()
		return w.Body.Bytes(), nil
	}
	call := func(name string, fn func() error) error {
		id := tr.begin(tr.request(), 0, name)
		err := fn()
		tr.end(id)
		return err
	}
	for i := 0; i < iters; i++ {
		if _, err := handle("generate_hit", http.MethodPost, "/v1/generate", warmBody); err != nil {
			return err
		}
		if _, err := handle("module", http.MethodPost, "/v1/module", moduleBody); err != nil {
			return err
		}
		if err := call("api.generate_hit_serve", func() error { _, err := svc.Generate(ctx, warm); return err }); err != nil {
			return err
		}
		if err := call("api.module", func() error {
			_, err := svc.Module(ctx, api.ModuleRequest{Pattern: playerPattern})
			return err
		}); err != nil {
			return err
		}
	}

	// Player traffic in the run's script shape: fresh players of
	// playerRounds submits each, through the handler and through api.
	players := max(1, iters/playerRounds)
	startBody := mustJSON(api.AttemptStartRequest{ModuleRef: player.ModuleRef{Pattern: playerPattern}})
	for i := 0; i < players; i++ {
		id := fmt.Sprintf("trace-serve-%d", i)
		if _, err := handle("player_create", http.MethodPost, "/v1/player", mustJSON(api.PlayerCreateRequest{ID: id})); err != nil {
			return err
		}
		apiID := fmt.Sprintf("trace-api-%d", i)
		if _, err := svc.PlayerCreate(ctx, api.PlayerCreateRequest{ID: apiID}); err != nil {
			return err
		}
		for r := 0; r < playerRounds; r++ {
			body, err := handle("player_start", http.MethodPost, "/v1/player/"+id+"/attempt", startBody)
			if err != nil {
				return err
			}
			var att api.AttemptResult
			if err := json.Unmarshal(body, &att); err != nil {
				return err
			}
			if _, err := handle("player_submit", http.MethodPost,
				fmt.Sprintf("/v1/player/%s/attempt/%d", id, att.Attempt.Attempt), mustJSON(api.AttemptSubmitRequest{Answer: 0})); err != nil {
				return err
			}
			a, err := svc.PlayerAttemptStart(ctx, api.AttemptStartRequest{Player: apiID, ModuleRef: player.ModuleRef{Pattern: playerPattern}})
			if err != nil {
				return err
			}
			if err := call("api.player_submit", func() error {
				_, err := svc.PlayerAttemptSubmit(ctx, api.AttemptSubmitRequest{Player: apiID, Attempt: a.Attempt.Attempt})
				return err
			}); err != nil {
				return err
			}
		}
		for r := 0; r < playerReads; r++ {
			if _, err := handle("player_progress", http.MethodGet, "/v1/player/"+id+"/progress", nil); err != nil {
				return err
			}
			if err := call("api.player_progress", func() error {
				_, err := svc.PlayerProgress(ctx, api.ProgressRequest{Player: apiID})
				return err
			}); err != nil {
				return err
			}
		}
	}
	st := tr.stats()
	for _, c := range []struct{ name, api string }{
		{"generate_hit", "api.generate_hit_serve"}, {"module", "api.module"},
		{"player_submit", "api.player_submit"}, {"player_progress", "api.player_progress"},
	} {
		hs, as := st["serve."+c.name], st[c.api]
		note := fmt.Sprintf("n=%d", hs.n)
		lm.set("serve.handler_us."+c.name, "us", 1000*hs.total, note+"; NewMux(...).ServeHTTP in-process")
		lm.set("serve.self_us."+c.name, "us", 1000*(hs.total-as.total), fmt.Sprintf("handler minus %s (%.1f us, n=%d)", c.api, 1000*as.total, as.n))
		lm.set("serve.resp_bytes."+c.name, "B", float64(size[c.name]), "")
	}

	// modules: the figure-pattern render behind /v1/module.
	entry, ok := patterns.Lookup(playerPattern)
	if !ok {
		return fmt.Errorf("pattern %q not in the catalog", playerPattern)
	}
	for i := 0; i < iters; i++ {
		if err := call("modules.from_entry", func() error { _, err := modules.FromEntry(entry); return err }); err != nil {
			return err
		}
	}
	fe := tr.stats()["modules.from_entry"]
	lm.set("modules.from_entry_us", "us", 1000*fe.total, fmt.Sprintf("n=%d", fe.n))
	return probePlayer(ctx, tr, lm, filepath.Join(storeDir, "engine"), players)
}

// probePlayer runs the fixed script straight on player.Engine over a
// fresh DirStore, then times rewriting one script's history.
func probePlayer(ctx context.Context, tr *tracer, lm *layerMetrics, dir string, players int) error {
	ds, err := player.NewDirStore(dir)
	if err != nil {
		return err
	}
	eng := player.NewEngine(ds)
	ref := player.ModuleRef{Pattern: playerPattern}
	var last string
	for i := 0; i < players; i++ {
		id := fmt.Sprintf("trace-engine-%d", i)
		req := tr.request()
		if _, err := eng.Create(ctx, player.Record{ID: id}); err != nil {
			return err
		}
		for r := 0; r < playerRounds; r++ {
			var att player.Attempt
			tr.timed(req, 0, "player.start_attempt", func() { att, err = eng.StartAttempt(ctx, id, ref) })
			if err != nil {
				return err
			}
			tr.timed(req, 0, "player.submit", func() { _, err = eng.Submit(ctx, id, att.Attempt, 0) })
			if err != nil {
				return err
			}
		}
		for r := 0; r < playerReads; r++ {
			tr.timed(req, 0, "player.progress", func() { _, err = eng.Progress(ctx, id) })
			if err != nil {
				return err
			}
		}
		last = id
	}
	history, err := ds.History(last)
	if err != nil {
		return err
	}
	for i := 0; i < players*playerRounds; i++ {
		tr.timed(tr.request(), 0, "player.put_history", func() { err = ds.PutHistory(last, history) })
		if err != nil {
			return err
		}
	}
	fi, err := os.Stat(filepath.Join(dir, last, "history.json"))
	if err != nil {
		return err
	}
	st := tr.stats()
	for _, c := range []string{"start_attempt", "submit", "progress", "put_history"} {
		s := st["player."+c]
		lm.set("player."+c+"_us", "us", 1000*s.total, fmt.Sprintf("n=%d", s.n))
	}
	lm.set("player.history_bytes", "B", float64(fi.Size()), fmt.Sprintf("history.json after %d submits", playerRounds))
	return nil
}

// probeCluster times cluster.Cluster calls against the same calls
// sent straight to its backend; the difference is the proxy hop's
// client side (routing, decoding and re-encoding).
func probeCluster(ctx context.Context, tr *tracer, lm *layerMetrics, in *inputs, backend string, iters int) error {
	cl, err := cluster.New([]string{backend})
	if err != nil {
		return err
	}
	// Removing the only backend closes its worker's connections; it is
	// a member, so there is no error to handle.
	defer func() { _, _ = cl.RemoveBackend(backend) }()
	direct := newClient(backend, 1)
	defer direct.close()
	warm := loadShape(coldSpec, in.coldSeed(1_000_000-1))
	warmBody := mustJSON(warm)
	if _, err := cl.Generate(ctx, warm); err != nil { // computes; later calls hit
		return err
	}
	mod := api.ModuleRequest{Pattern: playerPattern}
	modBody := mustJSON(mod)
	viaDirect := func(name, method, path string, body []byte) error {
		req := tr.request()
		id := tr.begin(req, 0, name)
		r, err := direct.do(ctx, method, path, body)
		tr.end(id)
		return expectOK(r, err)
	}
	viaCluster := func(name string, fn func() error) error {
		req := tr.request()
		id := tr.begin(req, 0, name)
		err := fn()
		tr.end(id)
		return err
	}
	for i := 0; i < iters; i++ {
		if err := viaCluster("cluster.warm", func() error { _, err := cl.Generate(ctx, warm); return err }); err != nil {
			return err
		}
		if err := viaDirect("direct.warm", http.MethodPost, "/v1/generate", warmBody); err != nil {
			return err
		}
		if err := viaCluster("cluster.module", func() error { _, err := cl.Module(ctx, mod); return err }); err != nil {
			return err
		}
		if err := viaDirect("direct.module", http.MethodPost, "/v1/module", modBody); err != nil {
			return err
		}
	}
	players := max(1, iters/playerRounds)
	for i := 0; i < players; i++ {
		id := fmt.Sprintf("trace-hop-%d-%d", in.seed%1_000_000, i)
		if _, err := cl.PlayerCreate(ctx, api.PlayerCreateRequest{ID: id}); err != nil {
			return err
		}
		for r := 0; r < playerRounds; r++ {
			start := func() (int64, error) {
				a, err := cl.PlayerAttemptStart(ctx, api.AttemptStartRequest{Player: id, ModuleRef: player.ModuleRef{Pattern: playerPattern}})
				if err != nil {
					return 0, err
				}
				return a.Attempt.Attempt, nil
			}
			n, err := start()
			if err != nil {
				return err
			}
			// Alternate which side submits, so both see the same
			// history lengths.
			if r%2 == i%2 {
				err = viaCluster("cluster.player_submit", func() error {
					_, err := cl.PlayerAttemptSubmit(ctx, api.AttemptSubmitRequest{Player: id, Attempt: n})
					return err
				})
			} else {
				err = viaDirect("direct.player_submit", http.MethodPost,
					fmt.Sprintf("/v1/player/%s/attempt/%d", id, n), mustJSON(api.AttemptSubmitRequest{Answer: 0}))
			}
			if err != nil {
				return err
			}
		}
	}
	n, _ := allocs(func() {
		for i := 0; i < iters && err == nil; i++ {
			_, err = cl.Generate(ctx, warm)
		}
	})
	if err != nil {
		return err
	}
	st := tr.stats()
	for _, c := range []string{"warm", "module", "player_submit"} {
		cs, ds := st["cluster."+c], st["direct."+c]
		lm.set("cluster.hop_us."+c, "us", 1000*(cs.total-ds.total),
			fmt.Sprintf("cluster %.1f us (n=%d) minus direct %.1f us (n=%d)", 1000*cs.total, cs.n, 1000*ds.total, ds.n))
	}
	lm.set("cluster.allocs_per_op", "count", n/float64(iters), fmt.Sprintf("n=%d warm Cluster.Generate, client side", iters))
	return nil
}

// bytesReader returns a reader over body, or nil for no body.
func bytesReader(body []byte) io.Reader {
	if body == nil {
		return nil
	}
	return bytes.NewReader(body)
}
