package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/patterns"
)

// normalizeResult strips the per-call fields (timings are wall-clock,
// the hit marker depends on interleaving) and returns the wire JSON —
// the canonical identity two services' answers are compared by.
func normalizeResult(t *testing.T, r *GenerateResult) string {
	t.Helper()
	cp := *r
	cp.Timings = Timings{}
	cp.CacheHit = false
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// normalizeFrames does the same for a collected stream.
func normalizeFrames(t *testing.T, frames []StreamFrame) string {
	t.Helper()
	cp := make([]StreamFrame, len(frames))
	copy(cp, frames)
	for i := range cp {
		if cp[i].Summary != nil {
			s := *cp[i].Summary
			s.Timings = Timings{}
			cp[i].Summary = &s
		}
	}
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCacheHitDefensiveCopies pins the warm-path aliasing fix: a
// caller mutating the result it was handed must not be able to
// corrupt the cached value other callers are served from.
func TestCacheHitDefensiveCopies(t *testing.T) {
	svc := New()
	req := NewGenerateRequest("attack", WithSeed(3), WithWorkers(2), WithParams(8, 4, 1), WithWindow(2))
	if _, err := svc.Generate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	warm, err := svc.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second request missed the cache")
	}
	if len(warm.Windows) == 0 || len(warm.Labels) == 0 {
		t.Fatalf("test needs windows and labels to mutate: %+v", warm)
	}
	pristine := normalizeResult(t, warm)

	// Vandalize every mutable header the caller can reach.
	warm.Labels[0] = "corrupted"
	for i := range warm.Schedule {
		warm.Schedule[i].Label = "corrupted"
	}
	for i := range warm.ComposedOf {
		warm.ComposedOf[i] = "corrupted"
	}
	for i := range warm.Aggregate.Mixture {
		warm.Aggregate.Mixture[i].Label = "corrupted"
	}
	for i := range warm.Windows {
		warm.Windows[i].Events = -1
		if r := warm.Windows[i].AttackStage; r != nil {
			r.Label = "corrupted"
		}
		if r := warm.Windows[i].DDoS; r != nil {
			r.Label = "corrupted"
		}
		if h := warm.Windows[i].Hub; h != nil {
			h.Host = "corrupted"
		}
	}

	again, err := svc.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := normalizeResult(t, again); got != pristine {
		t.Fatal("mutating a warm result leaked into the cache")
	}
}

// TestStreamEmitFailurePostFirstFrame pins the mid-stream error path:
// a consumer failing after frames have been delivered must get its
// own error back (not a bare context.Canceled), must see no further
// frames, and must leave no session behind.
func TestStreamEmitFailurePostFirstFrame(t *testing.T) {
	svc := New(WithDefaultWorkers(4))
	boom := errors.New("consumer hung up")
	var frames []string
	windowsSeen := 0
	req := NewGenerateRequest("background", WithSeed(5), WithParams(120, 40, 1), WithWindow(2))
	err := svc.GenerateStream(context.Background(), req, func(f StreamFrame) error {
		frames = append(frames, f.Type)
		if f.Type == FrameWindow {
			windowsSeen++
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the consumer's own error", err)
	}
	if windowsSeen != 1 {
		t.Fatalf("saw %d window frames, want exactly the failing one", windowsSeen)
	}
	if frames[len(frames)-1] != FrameWindow {
		t.Fatalf("frames after the failure: %v", frames)
	}
	if n := len(svc.Sessions()); n != 0 {
		t.Fatalf("%d sessions left behind", n)
	}
}

// TestPooledMatchesReference is the pooling property test: a pooled
// service hammered with concurrent mixed cold/warm/stream requests
// answers bit-identically (modulo timings and hit markers) to a
// pool-free reference service asked the same questions. Run under
// -race in CI, this is the aliasing detector for the whole arena
// design: any slab recycled while a response still referenced it
// shows up as a data race or a JSON mismatch.
func TestPooledMatchesReference(t *testing.T) {
	pooled := New(WithDefaultWorkers(4))
	ref := New(WithoutPooling(), WithDefaultWorkers(4))

	reqs := []GenerateRequest{
		NewGenerateRequest("scan", WithSeed(1), WithHosts(40), WithParams(8, 20, 1), WithWindow(2)),
		NewGenerateRequest("background", WithSeed(2), WithHosts(60), WithParams(10, 30, 1), WithWindow(5)),
		NewGenerateRequest("attack", WithSeed(3), WithHosts(20), WithParams(12, 4, 1), WithWindow(3)),
		NewGenerateRequest("overlay(background,scan)", WithSeed(4), WithHosts(40), WithParams(9, 15, 1), WithWindow(3), WithMatrices()),
	}

	const goroutines = 8
	const opsEach = 18
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				req := reqs[(g*7+i)%len(reqs)]
				if (g+i)%3 == 2 {
					// Stream op: collect both services' frames.
					var pf, rf []StreamFrame
					if err := pooled.GenerateStream(context.Background(), req, func(f StreamFrame) error {
						pf = append(pf, f)
						return nil
					}); err != nil {
						errc <- err
						return
					}
					if err := ref.GenerateStream(context.Background(), req, func(f StreamFrame) error {
						rf = append(rf, f)
						return nil
					}); err != nil {
						errc <- err
						return
					}
					if normalizeFrames(t, pf) != normalizeFrames(t, rf) {
						errc <- fmt.Errorf("goroutine %d op %d: pooled stream differs from reference", g, i)
						return
					}
					continue
				}
				// Batch op (cold or warm depending on interleaving).
				pr, err := pooled.Generate(context.Background(), req)
				if err != nil {
					errc <- err
					return
				}
				rr, err := ref.Generate(context.Background(), req)
				if err != nil {
					errc <- err
					return
				}
				if normalizeResult(t, pr) != normalizeResult(t, rr) {
					errc <- fmt.Errorf("goroutine %d op %d: pooled result differs from reference", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := pooled.ArenaStats(); st.Entries.Hits == 0 && st.Events.Hits == 0 {
		t.Fatalf("pooled service never reused a slab: %+v", st)
	}
	if st := ref.ArenaStats(); st.Entries.Gets != 0 || st.Events.Gets != 0 {
		t.Fatalf("reference service touched an arena: %+v", st)
	}
}

// traceChainResult rebuilds a cold result the way Generate computed it
// before it drained the streaming engine: materialize and sort the
// whole trace, split it with WindowsCSRArena over the configured
// duration, and fold it with SparseMatrixArena. It shares only the
// reading builders (windowResult, analyzeMatrix) with the service, so
// it is an independent reference for every generated byte.
func traceChainResult(t *testing.T, req GenerateRequest) *GenerateResult {
	t.Helper()
	ctx := context.Background()
	scn, err := resolveSpec(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.ScaledNetwork(req.Hosts)
	zones, err := net.Zones()
	if err != nil {
		t.Fatal(err)
	}
	p := req.params().Normalized()
	trace, err := netsim.GenerateTraceArena(ctx, nil, scn, net, req.Seed, req.Workers, p)
	if err != nil {
		t.Fatal(err)
	}
	res := &GenerateResult{
		Version: Version, Spec: netsim.SpecString(scn), Scenario: scn.Name(), Shape: scn.Shape(),
		Hosts: net.Len(), Seed: req.Seed, Workers: req.Workers, Duration: p.Duration,
		Events: len(trace), Packets: trace.TotalPackets(), Labels: net.Labels(),
		Network: net, Zones: zones,
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
	if req.Window > 0 {
		windows, err := trace.WindowsCSRArena(ctx, nil, net, req.Window, p.Duration)
		if err != nil {
			t.Fatal(err)
		}
		roles, rolesErr := patterns.AssignDDoSRoles(zones)
		for k, w := range windows {
			res.Windows = append(res.Windows, windowResult(k, w, zones, roles, rolesErr, res.Labels))
		}
	}
	csr, _ := trace.SparseMatrixArena(nil, net)
	res.Aggregate = analyzeMatrix(csr, zones)
	res.AggregateCSR = csr
	return res
}

// TestGenerateMatchesTraceChain pins that serving batch Generate from
// the streaming engine changed no response byte: for every catalog
// entry and two compositions, at workers 1/4/16, unwindowed and with
// a window that does not divide the duration, with and without dense
// cells, the wire JSON equals the trace-chain reference. The service
// caches nothing, so every request takes the cold path; it pools, so
// the arena recycles across cases.
func TestGenerateMatchesTraceChain(t *testing.T) {
	svc := New(WithCacheCapacity(0))
	specs := []string{"overlay(background, sequence(scan, ddos))", "sequence(scan, attack)"}
	for _, s := range netsim.Scenarios() {
		specs = append(specs, s.Name())
	}
	for _, spec := range specs {
		for _, workers := range []int{1, 4, 16} {
			for _, window := range []float64{0, 7} {
				req := NewGenerateRequest(spec, WithSeed(11), WithHosts(40), WithWorkers(workers),
					WithParams(20, 10, 1), WithWindow(window))
				ref := traceChainResult(t, req)
				for _, dense := range []bool{false, true} {
					req.IncludeMatrices = dense
					got, err := svc.Generate(context.Background(), req)
					if err != nil {
						t.Fatalf("%s workers=%d window=%g: %v", spec, workers, window, err)
					}
					if normalizeResult(t, got) != normalizeResult(t, finishResult(ref, false, dense)) {
						t.Fatalf("%s workers=%d window=%g cells=%v: response differs from the trace chain",
							spec, workers, window, dense)
					}
				}
			}
		}
	}
}
