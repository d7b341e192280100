package api

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/modules"
	"repro/internal/netsim"
	"repro/internal/patterns"
	"repro/internal/player"
)

// DefaultCacheCapacity bounds the result cache when no option
// overrides it.
const DefaultCacheCapacity = 64

// Service is the façade instance: one per process (twserve) or per
// command invocation (the CLIs). All methods are safe for concurrent
// use.
type Service struct {
	cacheCap   int
	workers    int
	shards     int
	noPooling  bool
	sessionIDs *sessionIDSource
	cache      ResultCache
	sessions   SessionStore
	flights    *shardedFlights
	// players is the account layer (see internal/player): mutable
	// per-user state served beside — never through — the result
	// cache.
	players *player.Engine
	// arena pools the generation pipeline's builder storage across
	// requests (nil when pooling is disabled — every netsim arena
	// entry point treats a nil arena as "allocate fresh", and the two
	// modes are bit-identical; see the pooled-vs-reference property
	// suite). Results handed to callers never alias arena storage:
	// CSR outputs are always freshly allocated, which is what lets
	// the LRU cache hold them forever without the arena ever
	// reclaiming a cached buffer.
	arena *netsim.Arena
}

// Option configures a Service under construction.
type Option func(*Service)

// WithCacheCapacity bounds the result cache to n entries; n ≤ 0
// disables caching.
func WithCacheCapacity(n int) Option { return func(s *Service) { s.cacheCap = n } }

// WithDefaultWorkers sets the worker count used when a request
// leaves Workers at 0 (which otherwise selects all CPUs).
func WithDefaultWorkers(n int) Option { return func(s *Service) { s.workers = n } }

// WithoutPooling disables the buffer arena: every request allocates
// fresh, exactly the pre-arena behaviour. The output is bit-identical
// either way; the option exists for A/B benchmarking and as the
// reference side of the pooling parity suite.
func WithoutPooling() Option { return func(s *Service) { s.noPooling = true } }

// WithShards sets the lock-stripe count for the result cache, the
// session store, and the singleflight group (rounded up to a power
// of two). n ≤ 0 selects DefaultShards. Sharding never changes
// results — WithShards(1) is the single-mutex reference behaviour
// the parity suite compares against.
func WithShards(n int) Option { return func(s *Service) { s.shards = n } }

// WithSessionIDs makes the service draw session IDs from a shared
// atomic counter instead of a private one, so several Service
// workers behind one router hand out process-unique IDs and an
// operator's CancelSession(id) names exactly one run.
func WithSessionIDs(ids *atomic.Int64) Option { return func(s *Service) { s.sessionIDs = ids } }

// New builds a Service with the given options.
func New(opts ...Option) *Service {
	s := &Service{cacheCap: DefaultCacheCapacity}
	for _, opt := range opts {
		opt(s)
	}
	if s.shards <= 0 {
		s.shards = DefaultShards()
	}
	s.cache = newShardedCache(s.cacheCap, s.shards)
	s.sessions = newSessionStore(s.shards, s.sessionIDs)
	s.flights = newShardedFlights(s.shards)
	if !s.noPooling {
		s.arena = netsim.NewArena()
	}
	if s.players == nil {
		s.players = player.NewEngine(player.NewMemStore())
	}
	return s
}

// CacheStats snapshots the result cache counters (with the
// per-shard breakdown).
func (svc *Service) CacheStats() CacheStats { return svc.cache.Stats() }

// ArenaStats snapshots the buffer arena's pool counters (zero when
// pooling is disabled).
func (svc *Service) ArenaStats() netsim.ArenaStats { return svc.arena.Stats() }

// Sessions snapshots the in-flight requests, oldest first.
func (svc *Service) Sessions() []SessionInfo { return svc.sessions.Snapshot() }

// SessionCount counts the in-flight requests without building the
// snapshot — the /v1/stats hot probe.
func (svc *Service) SessionCount() int { return svc.sessions.Len() }

// CancelSession aborts an in-flight request by ID, reporting whether
// it was found. The cancelled call returns context.Canceled to its
// own caller; nothing partial is cached.
func (svc *Service) CancelSession(id int64) bool { return svc.sessions.CancelByID(id) }

// resolveWorkers applies the request → service → all-CPUs default
// chain.
func (svc *Service) resolveWorkers(requested int) int {
	if requested > 0 {
		return requested
	}
	if svc.workers > 0 {
		return svc.workers
	}
	return runtime.NumCPU()
}

// Generate runs the full pipeline for the request: deterministic
// event generation on the worker pool, the optional per-window view,
// and the aggregate sparse-path analysis. A cold run is a drained
// stream: it shares cold with GenerateStream and collects the
// windows instead of sending them. Repeated requests for the
// same canonical spec and parameters are served from the LRU cache,
// and concurrent identical cold requests coalesce onto one run.
// Cancelling ctx aborts the sharded generation mid-run; a cancelled
// or failed run never enters the cache.
func (svc *Service) Generate(ctx context.Context, req GenerateRequest) (*GenerateResult, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	scn, err := resolveSpec(req.Spec)
	if err != nil {
		return nil, err
	}
	canonical := netsim.SpecString(scn)
	net := netsim.ScaledNetwork(req.Hosts)
	key := req.cacheKey(canonical, net.Len())
	if v, ok := svc.cache.Get(key); ok {
		return finishResult(v.(*GenerateResult), true, req.IncludeMatrices), nil
	}
	res, shared, err := svc.flights.do(ctx, key, func() (any, error) {
		fctx, end := svc.sessions.Begin(ctx, "generate", key)
		defer end()
		var windows []WindowResult
		r, err := svc.cold(fctx, scn, canonical, net, req, nil, func(wr WindowResult) error {
			windows = append(windows, wr)
			return nil
		})
		if err != nil {
			return nil, sessionErr(fctx, err)
		}
		r.Windows = windows
		svc.cache.Put(key, r)
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return finishResult(res.(*GenerateResult), shared, req.IncludeMatrices), nil
}

// finishResult builds the per-call view of a (possibly shared)
// result: the hit marker and the opt-in dense cell grids, derived on
// demand so the cached value itself stays encoding-neutral — two
// requests differing only in IncludeMatrices share one entry and
// each still gets exactly what it asked for.
//
// The view defensively copies every mutable header the cached value
// owns — label and schedule slices, the window list with its Reading
// and Hub pointers, the mixture readings. A warm hit used to alias
// them straight out of the cache, so one caller appending to Labels
// or rewriting a window's AttackStage silently corrupted every later
// response for the same key. The CSR matrices stay shared on purpose:
// they are the immutable bulk, never reclaimed or rewritten (the
// arena never pools CSR storage — a cached buffer is permanently the
// cache's), so sharing them is safe where sharing the headers was
// not.
func finishResult(res *GenerateResult, hit, includeMatrices bool) *GenerateResult {
	out := *res
	out.CacheHit = hit
	out.Labels = append([]string(nil), res.Labels...)
	out.Schedule = append([]Phase(nil), res.Schedule...)
	out.ComposedOf = append([]string(nil), res.ComposedOf...)
	out.Aggregate.Mixture = append([]Reading(nil), res.Aggregate.Mixture...)
	if len(res.Windows) > 0 {
		ws := make([]WindowResult, len(res.Windows))
		copy(ws, res.Windows)
		for i := range ws {
			if r := ws[i].AttackStage; r != nil {
				cp := *r
				ws[i].AttackStage = &cp
			}
			if r := ws[i].DDoS; r != nil {
				cp := *r
				ws[i].DDoS = &cp
			}
			if h := ws[i].Hub; h != nil {
				cp := *h
				ws[i].Hub = &cp
			}
		}
		out.Windows = ws
	}
	if includeMatrices {
		out.Cells = out.AggregateCSR.ToDense().ToRows()
		for i := range out.Windows {
			out.Windows[i].Cells = out.Windows[i].Matrix.ToDense().ToRows()
		}
	}
	return &out
}

// cold is the one cold path behind Generate and GenerateStream. It
// builds the result header, shows it to start (the stream's meta
// frame; nil for batch), and runs the generation engine: a windowed
// request drains netsim.StreamCSRArena, handing each sealed window's
// readings to onWindow in index order, and an unwindowed one takes
// the bare aggregate from netsim.GenerateCSRArena. Neither
// materializes a trace. It ends with the aggregate analysis; the
// caller decides what the windows become (batch collects them,
// streams send them).
func (svc *Service) cold(ctx context.Context, scn netsim.Scenario, canonical string, net *netsim.Network, req GenerateRequest, start func(*GenerateResult) error, onWindow func(WindowResult) error) (*GenerateResult, error) {
	zones, err := net.Zones()
	if err != nil {
		return nil, err
	}
	workers := svc.resolveWorkers(req.Workers)
	p := req.params().Normalized()
	res := &GenerateResult{
		Version:  Version,
		Spec:     canonical,
		Scenario: scn.Name(),
		Shape:    scn.Shape(),
		Hosts:    net.Len(),
		Seed:     req.Seed,
		Workers:  workers,
		Duration: p.Duration,
		Labels:   net.Labels(),
		Network:  net,
		Zones:    zones,
	}
	if sched, ok := scn.(netsim.Scheduler); ok {
		for _, ph := range sched.Schedule(p) {
			res.Schedule = append(res.Schedule, Phase{Label: ph.Label, Start: ph.Start, End: ph.End})
		}
	}
	if _, ok := scn.(netsim.Composite); ok {
		for _, leaf := range netsim.Leaves(scn) {
			res.ComposedOf = append(res.ComposedOf, leaf.Name())
		}
	}
	if start != nil {
		if err := start(res); err != nil {
			return nil, err
		}
	}

	genStart := time.Now()
	var csr *matrix.CSR
	var stats netsim.Stats
	if req.Window > 0 {
		roles, rolesErr := patterns.AssignDDoSRoles(zones)
		csr, stats, err = netsim.StreamCSRArena(ctx, svc.arena, scn, net, req.Seed, workers, p, req.Window, p.Duration,
			func(k int, w netsim.SparseWindow) error {
				return onWindow(windowResult(k, w, zones, roles, rolesErr, res.Labels))
			})
	} else {
		csr, stats, err = netsim.GenerateCSRArena(ctx, svc.arena, scn, net, req.Seed, workers, p)
	}
	if err != nil {
		return nil, err
	}
	genElapsed := time.Since(genStart)
	res.Events, res.Packets = stats.Events, stats.Packets

	analyzeStart := time.Now()
	res.Aggregate = analyzeMatrix(csr, zones)
	res.AggregateCSR = csr
	res.Timings = Timings{Generate: genElapsed, Analyze: time.Since(analyzeStart)}
	return res, nil
}

// windowResult builds one interval's WindowResult with its
// classifier readings. It is the single construction point shared by
// the batch per-window view and the streaming path, which is what
// guarantees a streamed window frame carries exactly the readings
// the batch result would for the same window.
func windowResult(k int, w netsim.SparseWindow, zones patterns.Zones, roles patterns.DDoSRoles, rolesErr error, labels []string) WindowResult {
	wr := WindowResult{
		Index: k, Start: w.Start, End: w.End,
		Events: w.Events, Packets: w.Matrix.Sum(), NNZ: w.Matrix.NNZ(),
		Dropped: w.Dropped, Matrix: w.Matrix,
	}
	if wr.NNZ > 0 {
		stage, conf := patterns.ClassifyAttackStageOf(w.Matrix, zones)
		wr.AttackStage = &Reading{Label: stage.String(), Confidence: conf}
		if rolesErr == nil {
			comp, dconf := patterns.ClassifyDDoSOf(w.Matrix, roles)
			wr.DDoS = &Reading{Label: comp.String(), Confidence: dconf}
		}
		if hubs := matrix.SupernodesOf(w.Matrix, patterns.SupernodeFanThreshold); len(hubs) > 0 {
			h := hubs[0]
			wr.Hub = &Hub{Host: labels[h.Index], Direction: h.Direction, Fan: h.Fan, Packets: h.Packets}
		}
	}
	return wr
}

// analyzeMatrix runs every classifier over a matrix through the
// read-only accessor interface.
func analyzeMatrix(m matrix.Matrix, zones patterns.Zones) Aggregate {
	agg := Aggregate{Profile: profileResult(matrix.ProfileOf(m))}
	if b, conf := patterns.ClassifyBehaviorOf(m, zones); b != patterns.BehaviorUnknown {
		agg.Behavior = &Reading{Label: b.String(), Confidence: conf}
	}
	agg.Topology = patterns.ClassifyTopologyOf(m, zones).String()
	stage, sconf := patterns.ClassifyAttackStageOf(m, zones)
	agg.Attack = Reading{Label: stage.String(), Confidence: sconf}
	for _, c := range patterns.ClassifyMixtureOf(m, zones) {
		agg.Mixture = append(agg.Mixture, Reading{Label: c.Label, Confidence: c.Score})
	}
	return agg
}

// supernodeHubs converts the supernode list to wire form.
func supernodeHubs(m matrix.Matrix, labels []string) []Hub {
	var out []Hub
	for _, h := range matrix.SupernodesOf(m, patterns.SupernodeFanThreshold) {
		out = append(out, Hub{Host: labels[h.Index], Direction: h.Direction, Fan: h.Fan, Packets: h.Packets})
	}
	return out
}

// Analyze classifies traffic: the Spec path generates (or re-serves
// from cache) a scenario run and reads its aggregate; the Matrix
// path classifies a posted matrix directly.
func (svc *Service) Analyze(ctx context.Context, req AnalyzeRequest) (*AnalyzeResult, error) {
	hasSpec := strings.TrimSpace(req.Spec) != ""
	hasMatrix := len(req.Matrix) > 0
	if hasSpec == hasMatrix {
		return nil, fmt.Errorf("%w: exactly one of spec or matrix must be set", ErrInvalidRequest)
	}
	if hasSpec {
		gres, err := svc.Generate(ctx, GenerateRequest{
			Spec: req.Spec, Hosts: req.Hosts, Seed: req.Seed, Workers: req.Workers,
			Duration: req.Duration, Rate: req.Rate, Scale: req.Scale,
		})
		if err != nil {
			return nil, err
		}
		return &AnalyzeResult{
			Version: Version, Source: "spec", Spec: gres.Spec, Hosts: gres.Hosts,
			Aggregate:  gres.Aggregate,
			Supernodes: supernodeHubs(gres.AggregateCSR, gres.Labels),
			CacheHit:   gres.CacheHit,
		}, nil
	}

	ctx, end := svc.sessions.Begin(ctx, "analyze", fmt.Sprintf("matrix %dx%d", len(req.Matrix), len(req.Matrix)))
	defer end()
	if len(req.Matrix) > MaxHosts {
		return nil, fmt.Errorf("%w: matrix size %d exceeds the %d limit", ErrInvalidRequest, len(req.Matrix), MaxHosts)
	}
	for i, row := range req.Matrix {
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("%w: matrix cell [%d][%d] = %d; packet counts must not be negative", ErrInvalidRequest, i, j, v)
			}
		}
	}
	dense, err := matrix.FromRows(req.Matrix)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	if dense.Rows() != dense.Cols() {
		return nil, fmt.Errorf("%w: matrix must be square, got %dx%d", ErrInvalidRequest, dense.Rows(), dense.Cols())
	}
	zones, err := zonesFor(dense.Rows(), req.BlueEnd, req.GreyEnd)
	if err != nil {
		return nil, err
	}
	labels := matrixLabels(dense.Rows())
	res := &AnalyzeResult{
		Version: Version, Source: "matrix", Hosts: dense.Rows(),
		Aggregate:  analyzeMatrix(dense, zones),
		Supernodes: supernodeHubs(dense, labels),
	}
	// The classification is synchronous and quick, so cancellation
	// is honored at call granularity: a cancelled session (or
	// caller) gets the context error, not a result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// zonesFor places the blue→grey→red boundaries for a posted matrix:
// explicit boundaries when given, the paper's standard 10-host
// layout at n=10, and the scaled role mix proportions otherwise.
func zonesFor(n, blueEnd, greyEnd int) (patterns.Zones, error) {
	if blueEnd != 0 || greyEnd != 0 {
		z := patterns.Zones{N: n, BlueEnd: blueEnd, GreyEnd: greyEnd}
		if blueEnd < 0 || greyEnd < blueEnd || greyEnd > n {
			return patterns.Zones{}, fmt.Errorf("%w: zone split blue_end=%d grey_end=%d invalid for n=%d",
				ErrInvalidRequest, blueEnd, greyEnd, n)
		}
		return z, nil
	}
	if n == 10 {
		return patterns.Zones{N: 10, BlueEnd: 4, GreyEnd: 6}, nil
	}
	red := n * 3 / 20
	if red < 1 {
		red = 1
	}
	grey := n * 3 / 20
	if grey < 1 {
		grey = 1
	}
	blue := n - red - grey
	if blue < 1 {
		blue = 1
	}
	// Tiny matrices cannot hold all three zones at the floor sizes;
	// give blue priority and shrink grey so the boundaries stay
	// within the axis (a 1×1 matrix is all blue).
	if blue > n {
		blue = n
	}
	if blue+grey > n {
		grey = n - blue
	}
	return patterns.Zones{N: n, BlueEnd: blue, GreyEnd: blue + grey}, nil
}

// matrixLabels names the axis of a posted matrix: the paper's
// standard labels at n=10, positional names otherwise.
func matrixLabels(n int) []string {
	if n == 10 {
		return netsim.StandardNetwork().Labels()
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("H%d", i)
	}
	return out
}

// Module synthesizes a playable learning module: from a scenario run
// (Spec) via the bridge, or from a paper figure panel (Pattern).
// Spec-path modules are cached and coalesced like Generate results;
// returned modules are shared and must be treated as immutable.
func (svc *Service) Module(ctx context.Context, req ModuleRequest) (*core.Module, error) {
	hasSpec := strings.TrimSpace(req.Spec) != ""
	hasPattern := strings.TrimSpace(req.Pattern) != ""
	if hasSpec == hasPattern {
		return nil, fmt.Errorf("%w: exactly one of spec or pattern must be set", ErrInvalidRequest)
	}
	if hasPattern {
		entry, ok := patterns.Lookup(req.Pattern)
		if !ok {
			return nil, fmt.Errorf("%w: unknown pattern %q (see the catalog's patterns list)", ErrInvalidRequest, req.Pattern)
		}
		return modules.FromEntry(entry)
	}
	// Reuse the generate-request field validation for the shared
	// scenario parameters.
	gr := GenerateRequest{Spec: req.Spec, Hosts: req.Hosts, Duration: req.Duration, Rate: req.Rate, Scale: req.Scale}
	if err := gr.validate(); err != nil {
		return nil, err
	}
	scn, err := resolveSpec(req.Spec)
	if err != nil {
		return nil, err
	}
	net := netsim.ScaledNetwork(req.Hosts)
	p := netsim.Params{Duration: req.Duration, Rate: req.Rate, Scale: req.Scale}
	key := paramsKey("module", netsim.SpecString(scn), net.Len(), req.Seed, p)
	if v, ok := svc.cache.Get(key); ok {
		return v.(*core.Module), nil
	}
	m, _, err := svc.flights.do(ctx, key, func() (any, error) {
		fctx, end := svc.sessions.Begin(ctx, "module", key)
		defer end()
		m, err := bridge.AggregateModuleContext(fctx, scn, net, req.Seed, svc.resolveWorkers(0), p)
		if err != nil {
			return nil, sessionErr(fctx, err)
		}
		svc.cache.Put(key, m)
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return m.(*core.Module), nil
}

// Campaign synthesizes a whole course from a scenario: overview
// lesson plus window-by-window timeline. Campaigns are cached and
// coalesced like Generate results; returned campaigns are shared
// and must be treated as immutable.
func (svc *Service) Campaign(ctx context.Context, req CampaignRequest) (*bridge.Campaign, error) {
	if req.Window <= 0 {
		return nil, fmt.Errorf("%w: campaign window must be positive, got %g", ErrInvalidRequest, req.Window)
	}
	gr := GenerateRequest{Spec: req.Spec, Hosts: req.Hosts, Duration: req.Duration, Rate: req.Rate, Scale: req.Scale, Window: req.Window}
	if err := gr.validate(); err != nil {
		return nil, err
	}
	scn, err := resolveSpec(req.Spec)
	if err != nil {
		return nil, err
	}
	net := netsim.ScaledNetwork(req.Hosts)
	p := netsim.Params{Duration: req.Duration, Rate: req.Rate, Scale: req.Scale}
	key := paramsKey("campaign", netsim.SpecString(scn), net.Len(), req.Seed, p) +
		fmt.Sprintf("|win=%g", req.Window)
	if v, ok := svc.cache.Get(key); ok {
		return v.(*bridge.Campaign), nil
	}
	c, _, err := svc.flights.do(ctx, key, func() (any, error) {
		fctx, end := svc.sessions.Begin(ctx, "campaign", key)
		defer end()
		c, err := bridge.CampaignFromScenarioContext(fctx, scn, net, req.Seed, svc.resolveWorkers(0), p, req.Window)
		if err != nil {
			return nil, sessionErr(fctx, err)
		}
		svc.cache.Put(key, c)
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return c.(*bridge.Campaign), nil
}

// Catalog lists everything the service can produce. The context is
// accepted for interface uniformity; the listing is immediate.
func (svc *Service) Catalog(context.Context) *CatalogResult {
	out := &CatalogResult{Version: Version}
	for _, s := range netsim.Scenarios() {
		_, composite := s.(netsim.Composite)
		out.Scenarios = append(out.Scenarios, ScenarioInfo{
			Name: s.Name(), Description: s.Description(), Shape: s.Shape(), Composite: composite,
		})
	}
	for _, f := range patterns.Families() {
		for _, e := range patterns.ByFamily(f) {
			out.Patterns = append(out.Patterns, PatternInfo{
				ID: e.ID, Family: string(e.Family), Figure: e.Figure, Title: e.Title,
			})
		}
	}
	return out
}

// WindowModule renders one window of a generated result as an
// editable learning module (no question; an educator adds one): the
// twsim -export path, kept next to the result types so front-ends
// need no matrix/patterns wiring of their own.
func WindowModule(res *GenerateResult, w *WindowResult, author string) *core.Module {
	clamped := w.Matrix.ToDense()
	clamped.Apply(func(v int) int {
		if v > core.MaxDisplayPackets {
			return core.MaxDisplayPackets
		}
		return v
	})
	name := res.Scenario
	if name != "" {
		name = strings.ToUpper(name[:1]) + name[1:]
	}
	return &core.Module{
		Name:                "Captured " + name + " Traffic",
		Size:                core.FormatSize(res.Hosts),
		Author:              author,
		AxisLabels:          res.Labels,
		TrafficMatrix:       clamped.ToRows(),
		TrafficMatrixColors: res.Zones.ColorMatrix().ToRows(),
		HasQuestion:         false,
	}
}
