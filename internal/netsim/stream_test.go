package netsim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/matrix"
)

// traceReference is what the streaming engine must reproduce bit for
// bit, computed the other way round: the materialized trace
// (GenerateTraceArena) split by WindowsCSRArena over the full
// configured duration, folded whole by SparseMatrixArena, and the run
// stats the trace implies. None of it runs through the engine, so the
// comparison stays two-sided.
type traceReference struct {
	windows []SparseWindow
	agg     *matrix.CSR
	stats   Stats
}

func referenceFromTrace(t *testing.T, s Scenario, net *Network, seed int64, p Params, windowLen float64) traceReference {
	t.Helper()
	trace, err := GenerateTraceArena(context.Background(), nil, s, net, seed, 4, p)
	if err != nil {
		t.Fatalf("GenerateTraceArena(%s): %v", SpecString(s), err)
	}
	wins, err := trace.WindowsCSRArena(context.Background(), nil, net, windowLen, p.withDefaults().Duration)
	if err != nil {
		t.Fatalf("WindowsCSRArena(%s): %v", SpecString(s), err)
	}
	agg, dropped := trace.SparseMatrixArena(nil, net)
	return traceReference{
		windows: wins,
		agg:     agg,
		stats:   Stats{Events: len(trace), Packets: trace.TotalPackets(), Dropped: dropped},
	}
}

// collectStream runs StreamCSRArena and gathers the delivered
// windows, asserting in-order delivery as it goes, and checks the
// returned aggregate and stats against the trace reference.
func collectStream(t *testing.T, s Scenario, net *Network, seed int64, workers int, p Params, windowLen float64, want traceReference) []SparseWindow {
	t.Helper()
	var got []SparseWindow
	csr, stats, err := StreamCSRArena(context.Background(), nil, s, net, seed, workers, p, windowLen, 0, func(k int, w SparseWindow) error {
		if k != len(got) {
			t.Fatalf("%s: window %d delivered out of order (expected %d)", SpecString(s), k, len(got))
		}
		got = append(got, w)
		return nil
	})
	if err != nil {
		t.Fatalf("StreamCSRArena(%s): %v", SpecString(s), err)
	}
	if !reflect.DeepEqual(csr, want.agg) {
		t.Errorf("%s: streamed aggregate CSR differs from the trace fold", SpecString(s))
	}
	if stats != want.stats {
		t.Errorf("%s: streamed stats = %+v, want %+v", SpecString(s), stats, want.stats)
	}
	return got
}

// compareWindows asserts bit-identity between streamed and batch
// windows: same count, same bounds, same tallies, DeepEqual CSRs.
func compareWindows(t *testing.T, label string, got, want []SparseWindow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d streamed windows, want %d", label, len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Start != w.Start || g.End != w.End {
			t.Errorf("%s window %d: bounds [%g,%g), want [%g,%g)", label, k, g.Start, g.End, w.Start, w.End)
		}
		if g.Events != w.Events || g.Dropped != w.Dropped {
			t.Errorf("%s window %d: events/dropped = %d/%d, want %d/%d", label, k, g.Events, g.Dropped, w.Events, w.Dropped)
		}
		if !reflect.DeepEqual(g.Matrix, w.Matrix) {
			t.Errorf("%s window %d: streamed CSR not bit-identical to the trace reference", label, k)
		}
	}
}

// TestStreamCSRCatalogParity is the tentpole contract over the whole
// catalog: for every entry, for workers 1, 4 and 16, and for three
// window lengths (including one that does not divide the duration),
// the streamed windows are bit-identical to the trace's
// WindowsCSRArena view and the aggregate matches the trace fold.
func TestStreamCSRCatalogParity(t *testing.T) {
	net := StandardNetwork()
	p := Params{Duration: 20, Rate: 6}
	for _, s := range Scenarios() {
		for _, workers := range []int{1, 4, 16} {
			for _, windowLen := range []float64{1, 2.5, 7} {
				want := referenceFromTrace(t, s, net, 42, p, windowLen)
				got := collectStream(t, s, net, 42, workers, p, windowLen, want)
				label := s.Name()
				compareWindows(t, label, got, want.windows)
				if t.Failed() {
					t.Fatalf("parity broken at %s workers=%d window=%g", label, workers, windowLen)
				}
			}
		}
	}
}

// TestStreamCSRScaledNetworkParity repeats the parity check on a
// larger axis, where foreign-host drops and busier windows exercise
// the compactor harder.
func TestStreamCSRScaledNetworkParity(t *testing.T) {
	net := ScaledNetwork(64)
	p := Params{Duration: 12, Rate: 40}
	for _, name := range []string{"background", "ddos", "worm", "flashcrowd"} {
		s, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("catalog missing %q", name)
		}
		for _, workers := range []int{1, 4, 16} {
			want := referenceFromTrace(t, s, net, 99, p, 3)
			got := collectStream(t, s, net, 99, workers, p, 3, want)
			compareWindows(t, name, got, want.windows)
		}
	}
}

// TestStreamCSRComposedParity runs the parity property over random
// combinator trees: streaming must agree with batch for arbitrary
// overlays, sequences, dilations, amplifications, relabelings and
// truncations of catalog entries — the shapes that exercise the
// ChunkSpan forwarding in compose.go.
func TestStreamCSRComposedParity(t *testing.T) {
	prims := primitives(t)
	r := rand.New(rand.NewSource(1234))
	net := StandardNetwork()
	p := Params{Duration: 25, Rate: 5}
	workerSets := []int{1, 4, 16}
	for i := 0; i < 30; i++ {
		s := randomScenario(r, prims, 3)
		windowLen := []float64{2, 2.5, 5}[i%3]
		// Some random trees are invalid configurations (a sequence
		// whose timed steps overrun the duration). Batch rejects them;
		// the stream must reject them identically, not half-run.
		if _, batchErr := GenerateTraceArena(context.Background(), nil, s, net, int64(i), 4, p); batchErr != nil {
			_, _, streamErr := StreamCSRArena(context.Background(), nil, s, net, int64(i), 4, p, windowLen, 0,
				func(int, SparseWindow) error { return nil })
			if streamErr == nil || streamErr.Error() != batchErr.Error() {
				t.Fatalf("tree %d (%s): batch rejects with %q, stream says %v", i, SpecString(s), batchErr, streamErr)
			}
			continue
		}
		want := referenceFromTrace(t, s, net, int64(i), p, windowLen)
		got := collectStream(t, s, net, int64(i), workerSets[i%len(workerSets)], p, windowLen, want)
		compareWindows(t, SpecString(s), got, want.windows)
		if t.Failed() {
			t.Fatalf("composed parity broken at tree %d: %s", i, SpecString(s))
		}
	}
}

// TestChunkSpanCovers is the safety property under every declared
// span: a chunk's real emissions never leave its reported bounds.
// An under-reported span is the one bug class that would silently
// drop traffic from sealed windows, so it gets its own direct check
// in addition to the end-to-end parity tests. Random combinator
// trees are included to exercise the span arithmetic in compose.go.
func TestChunkSpanCovers(t *testing.T) {
	prims := primitives(t)
	r := rand.New(rand.NewSource(5))
	net := StandardNetwork()
	subjects := make([]Scenario, 0, 28)
	subjects = append(subjects, Scenarios()...)
	for i := 0; i < 20; i++ {
		subjects = append(subjects, randomScenario(r, prims, 3))
	}
	p := Params{Duration: 18, Rate: 6}
	for _, s := range subjects {
		sp, ok := s.(ChunkSpanner)
		if !ok {
			continue
		}
		_, _, pd, err := planRun(s, net, 1, p)
		if err != nil {
			// Invalid random configuration; nothing to span.
			continue
		}
		chunks := s.Chunks(net, pd)
		for k := 0; k < chunks; k++ {
			start, end := sp.ChunkSpan(net, pd, k)
			if math.IsNaN(start) || math.IsNaN(end) {
				t.Fatalf("%s chunk %d: NaN span [%g,%g]", SpecString(s), k, start, end)
			}
			err := s.Emit(net, chunkRNG(11, k), pd, k, func(e Event) {
				if e.Time < start || e.Time > end {
					t.Errorf("%s chunk %d: event at t=%g outside declared span [%g,%g]",
						SpecString(s), k, e.Time, start, end)
				}
			})
			if err != nil {
				// Invalid configuration (e.g. a sequence overrunning its
				// duration); the engine rejects it before spans matter.
				break
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestStreamCSRFirstWindowBeforeCompletion pins the point of the
// whole exercise: for a time-local scenario the first window is
// delivered while most chunks are still outstanding, not after the
// run completes. Duration 600 gives 600 one-second chunks; the first
// 10-second window needs only the first ~11 of them.
func TestStreamCSRFirstWindowBeforeCompletion(t *testing.T) {
	s, ok := LookupScenario("background")
	if !ok {
		t.Fatal("catalog missing background")
	}
	net := StandardNetwork()
	p := Params{Duration: 600, Rate: 2}
	firstAt := -1
	windows := 0
	_, _, err := StreamCSRArena(context.Background(), nil, s, net, 3, 4, p, 10, 0, func(k int, w SparseWindow) error {
		if windows == 0 {
			firstAt = k
		}
		windows++
		return nil
	})
	if err != nil {
		t.Fatalf("StreamCSRArena: %v", err)
	}
	if firstAt != 0 || windows != 60 {
		t.Fatalf("first window index %d, %d windows delivered; want 0 and 60", firstAt, windows)
	}
	// Re-run and stop at the first window: if sealing waited for the
	// whole run this would do 600 chunks of work; bound it instead by
	// counting chunk RNG draws is intrusive, so assert on wall-clock
	// asymmetry: aborting after window 0 must be much cheaper than the
	// full run. The CI benchmark (stream_bench_test.go) measures the
	// real latency ratio; here we only pin the early-exit plumbing.
	stop := errors.New("stop")
	_, _, err = StreamCSRArena(context.Background(), nil, s, net, 3, 4, p, 10, 0, func(k int, w SparseWindow) error {
		return stop
	})
	if !errors.Is(err, stop) {
		t.Fatalf("StreamCSRArena after onWindow error = %v, want stop", err)
	}
}

// TestStreamCSRCancellation pins prompt mid-stream cancellation: a
// context cancelled after the first window stops generation at chunk
// granularity, returns the context error, and leaks no goroutines.
func TestStreamCSRCancellation(t *testing.T) {
	s, ok := LookupScenario("background")
	if !ok {
		t.Fatal("catalog missing background")
	}
	net := StandardNetwork()
	p := Params{Duration: 3600, Rate: 2}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	windows := 0
	start := time.Now()
	_, _, err := StreamCSRArena(ctx, nil, s, net, 9, 4, p, 5, 0, func(k int, w SparseWindow) error {
		windows++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StreamCSRArena after cancel = %v, want context.Canceled", err)
	}
	if windows == 0 {
		t.Fatal("cancelled before any window was delivered")
	}
	if windows >= 720 {
		t.Fatalf("all %d windows delivered despite cancellation", windows)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}

	// Worker goroutines must drain. NumGoroutine is noisy, so retry.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamCSRInvalidWindow pins the argument taxonomy: a
// non-positive window length is rejected before any generation.
func TestStreamCSRInvalidWindow(t *testing.T) {
	s, ok := LookupScenario("background")
	if !ok {
		t.Fatal("catalog missing background")
	}
	for _, bad := range []float64{0, -1} {
		_, _, err := StreamCSRArena(context.Background(), nil, s, StandardNetwork(), 1, 1, Params{}, bad, 0, func(int, SparseWindow) error { return nil })
		if err == nil {
			t.Fatalf("StreamCSRArena accepted window length %g", bad)
		}
	}
}
