package netsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
)

// The generation engine. Every cold output — the whole-run
// aggregate alone (GenerateCSRArena) or the aggregate plus its
// fixed-length windows (StreamCSRArena) — comes out of one pass:
// workers emit chunks into per-worker COO shards for the aggregate
// and, when windows are asked for, into an incremental per-window
// compactor (matrix.WindowCompactor) that finalizes each window —
// sealed CSR, in order — as soon as every chunk that could touch it
// has finished, using the ChunkSpanner time-locality contract. No
// trace is materialized, so memory is bounded by the open windows
// and the shards rather than by the run, and time-to-first-window
// drops from O(run) to O(window) for time-local scenarios.
//
// Determinism survives because a window's CSR is a pure function of
// the event multiset that lands in it: chunks derive all randomness
// from (seed, chunk), window membership depends only on each event's
// own timestamp, and COO compaction sorts by coordinate and sums —
// commutative — so any worker count and any arrival order compact to
// bit-identical windows. The engine-vs-trace parity suite
// (stream_test.go) pins this against GenerateTraceArena's folds
// across the catalog, composed specs, and workers 1/4/16.

// StreamCSRArena generates the scenario and streams its
// fixed-length aggregation windows through onWindow, in order, each
// finalized — compacted to CSR, builder storage released — the
// moment every chunk whose time span overlaps it has completed. The
// sealed windows are bit-identical to Trace.WindowsCSRArena over the
// trace with the same windowLen and horizon, for any worker count. A
// horizon ≤ 0 uses the configured duration. The whole-run aggregate
// accumulates in sharded COO alongside the fold (exactly
// GenerateCSRArena) and is returned as CSR with the run stats once
// the stream completes. An onWindow error or a cancelled ctx stops
// generation at chunk granularity and is returned; windows already
// delivered stay delivered.
//
// The window compactor's per-window shards, the aggregate's worker
// shards, and the merge output are pooled in the arena (nil
// allocates fresh — bit-identical windows either way). Window
// builders recycle at Seal, worker shards after the final merge; the
// sealed window CSRs and the returned aggregate CSR are always
// freshly allocated and the consumer's forever. On an error mid-run,
// builders of never-sealed windows are left to the GC rather than
// reclaimed — safe, since pooling is only an optimization and error
// paths are off the steady-state loop.
func StreamCSRArena(ctx context.Context, a *Arena, s Scenario, net *Network, seed int64, workers int, p Params, windowLen, horizon float64, onWindow func(index int, w SparseWindow) error) (*matrix.CSR, Stats, error) {
	if windowLen <= 0 {
		return nil, Stats{}, fmt.Errorf("netsim: window length must be positive, got %g", windowLen)
	}
	return generate(ctx, a, s, net, seed, workers, p, windowLen, horizon, onWindow)
}

// generate is the engine behind GenerateCSRArena and StreamCSRArena.
// windowLen 0 asks for the aggregate alone: no compactor is built and
// onWindow is never called.
func generate(ctx context.Context, a *Arena, s Scenario, net *Network, seed int64, workers int, p Params, windowLen, horizon float64, onWindow func(index int, w SparseWindow) error) (*matrix.CSR, Stats, error) {
	chunks, workers, pd, err := planRun(s, net, workers, p)
	if err != nil {
		return nil, Stats{}, err
	}
	windowed := windowLen > 0
	nw := 0
	if windowed {
		if horizon <= 0 {
			horizon = pd.Duration
		}
		nw = int(math.Ceil(horizon / windowLen))
		if nw < 1 {
			nw = 1
		}
	}
	n := net.Len()

	// Resolve every chunk's conservative window range once, and count
	// how many chunks can touch each window (difference array keeps
	// this O(chunks + windows)). pending[w] hitting zero is the signal
	// that window w is sealed.
	var lo, hi []int32
	pending := make([]atomic.Int32, nw)
	if windowed {
		lo = make([]int32, chunks)
		hi = make([]int32, chunks)
		diff := make([]int32, nw+1)
		for k := 0; k < chunks; k++ {
			start, end := chunkSpan(s, net, pd, k)
			wlo := 0
			if w, ok := windowIndex(start, windowLen, horizon, nw); ok {
				wlo = w
			}
			whi := nw - 1
			if w, ok := windowIndex(end, windowLen, horizon, nw); ok {
				whi = w
			}
			if whi < wlo {
				whi = wlo
			}
			lo[k], hi[k] = int32(wlo), int32(whi)
			diff[wlo]++
			diff[whi+1]--
		}
		run := int32(0)
		for w := 0; w < nw; w++ {
			run += diff[w]
			pending[w].Store(run)
		}
	}

	budget := eventBudget(pd)
	compactor := matrix.NewWindowCompactorArena(a.Matrix(), n, n, nw, divHint(budget, nw))
	shards := make([]*matrix.COO, workers)
	partial := make([]Stats, workers)
	shardHint := divHint(budget, workers)
	for w := range shards {
		shards[w] = matrix.NewCOOIn(a.Matrix(), n, n, shardHint)
	}

	var (
		emitMu   sync.Mutex
		frontier int
		emitErr  error
	)
	// advance seals and delivers every window at the frontier whose
	// pending count has reached zero. Callers hold emitMu, so windows
	// leave in strict index order no matter which worker advances.
	// The first onWindow error is sticky: it leaves the frontier on a
	// window that is already sealed, so advancing again would re-seal
	// it (a panic) — and delivering anything after a consumer error
	// would be wrong anyway. Every later advance returns the original
	// error without touching the compactor.
	advance := func() error {
		if emitErr != nil {
			return emitErr
		}
		for frontier < nw && pending[frontier].Load() == 0 {
			csr, events, dropped := compactor.Seal(frontier)
			start := float64(frontier) * windowLen
			win := SparseWindow{
				Start:   start,
				End:     start + windowLen,
				Matrix:  csr,
				Events:  events,
				Dropped: dropped,
			}
			if err := onWindow(frontier, win); err != nil {
				emitErr = err
				return err
			}
			frontier++
		}
		return nil
	}
	// Windows no chunk can reach seal immediately (an empty leading
	// window of a late-starting scenario streams out at t=0).
	emitMu.Lock()
	err = advance()
	emitMu.Unlock()
	if err != nil {
		releaseShards(shards)
		return nil, Stats{}, err
	}

	err = runChunks(ctx, chunks, workers, seed, func(w, k int, rng *rand.Rand) error {
		acc, st := shards[w], &partial[w]
		if err := s.Emit(net, rng, pd, k, func(e Event) {
			st.Events++
			st.Packets += e.Packets
			i, iok := net.Index(e.Src)
			j, jok := net.Index(e.Dst)
			inAxis := iok && jok
			if inAxis {
				acc.Add(i, j, e.Packets)
			} else {
				st.Dropped += e.Packets
			}
			if !windowed {
				return
			}
			wi, ok := windowIndex(e.Time, windowLen, horizon, nw)
			if !ok {
				return
			}
			if wi < int(lo[k]) || wi > int(hi[k]) {
				// The scenario emitted outside its declared span: the
				// window may already be sealed and silently missing this
				// event. Fail loudly — this is a ChunkSpanner bug.
				panic(fmt.Sprintf("netsim: scenario %q chunk %d emitted t=%g into window %d outside its declared span [%d,%d]",
					s.Name(), k, e.Time, wi, lo[k], hi[k]))
			}
			if inAxis {
				compactor.Add(wi, i, j, e.Packets)
				compactor.Note(wi, 1, 0)
			} else {
				compactor.Note(wi, 1, e.Packets)
			}
		}); err != nil {
			return err
		}
		if !windowed {
			return nil
		}
		// The chunk is done: release its windows and flush any that
		// sealed. Only a decrement that hits zero can move the
		// frontier, so the lock is taken only then.
		sealed := false
		for w := lo[k]; w <= hi[k]; w++ {
			if pending[w].Add(-1) == 0 {
				sealed = true
			}
		}
		if sealed {
			emitMu.Lock()
			err := advance()
			emitMu.Unlock()
			return err
		}
		return nil
	})
	if err != nil {
		releaseShards(shards)
		return nil, Stats{}, err
	}
	// All chunks completed, so every pending count is zero: flush the
	// tail (trailing windows whose chunks finished without a final
	// zero-crossing of their own, plus trailing empties).
	emitMu.Lock()
	err = advance()
	emitMu.Unlock()
	if err != nil {
		releaseShards(shards)
		return nil, Stats{}, err
	}

	merged, err := matrix.MergeCOOArena(ctx, a.Matrix(), shards...)
	// The merge copied every triple out (or failed): either way the
	// shards are dead now.
	releaseShards(shards)
	if err != nil {
		return nil, Stats{}, err
	}
	var stats Stats
	for _, st := range partial {
		stats.Events += st.Events
		stats.Packets += st.Packets
		stats.Dropped += st.Dropped
	}
	csr := merged.ToCSR()
	merged.Release()
	return csr, stats, nil
}
