package netsim

import "repro/internal/matrix"

// The generation-side arena: one pooling scope for everything a
// request's hot path builds and discards — per-worker and per-window
// COO shards and the merge output on the engine (GenerateCSRArena,
// StreamCSRArena), plus chunk event buffers and the concatenated
// trace slab when a trace is materialized (GenerateTraceArena). It
// wraps the matrix layer's triple arena and adds an event-slab pool
// of its own for the trace side.
//
// Every generation entry point takes an *Arena (GenerateTraceArena,
// GenerateCSRArena, StreamCSRArena, Trace.WindowsCSRArena,
// Trace.SparseMatrixArena), and a nil arena means "allocate fresh"
// everywhere — the pooled and pool-free paths produce bit-identical
// output by construction, pinned by the parity tests in
// arena_test.go and the api layer's pooled-vs-reference property
// suite.
//
// Slab requests are pre-sized from the run's event budget
// (duration × rate × scale after defaults), divided across chunks,
// workers, or windows as appropriate, so steady-state serving hits
// the free-lists instead of growing slices from nil. The ownership
// rules are the matrix arena's (see matrix/arena.go and DESIGN.md):
// only builder storage is pooled; CSR outputs are always fresh and
// consumer-owned. Pooled event slabs may retain host-name string
// pointers from earlier runs until overwritten; those strings alias
// long-lived network labels, so the retention is bounded and benign.

// DefaultEventElems bounds the arena's retained event storage:
// enough for a documented workload's trace slab plus its chunk
// buffers, while keeping the pooled footprint of one process firmly
// bounded. The serving path materializes no trace, so a service's
// event pool stays empty.
const DefaultEventElems = 4 << 20

// maxSlabHint caps any single pre-size request. Larger asks still
// work — append growth takes over past the hint — but pre-allocating
// beyond this wastes arena retention on pathological budgets.
const maxSlabHint = 4 << 20

// Arena pools the generation pipeline's builder storage. One Arena
// per service instance, shared by every request; all methods are safe
// for concurrent use and nil-safe (a nil *Arena allocates fresh).
type Arena struct {
	mat    *matrix.Arena
	events *matrix.SlabPool[Event]
}

// ArenaStats snapshots both pools' counters.
type ArenaStats struct {
	// Entries is the COO triple pool (shards, merge outputs).
	Entries matrix.PoolStats
	// Events is the event-slab pool (chunk buffers, trace slabs).
	Events matrix.PoolStats
}

// NewArena builds an arena with the default retention bounds.
func NewArena() *Arena {
	return &Arena{
		mat:    matrix.NewArena(),
		events: matrix.NewSlabPool[Event](DefaultEventElems),
	}
}

// Matrix exposes the triple arena for the matrix-layer calls.
// nil-safe: a nil Arena has a nil matrix arena.
func (a *Arena) Matrix() *matrix.Arena {
	if a == nil {
		return nil
	}
	return a.mat
}

// GetEvents takes a zero-length event slab with capacity ≥ c (best
// effort). For a nil arena it returns nil — exactly the `var buf
// []Event` the pool-free path starts from, so append semantics are
// identical either way.
func (a *Arena) GetEvents(c int) []Event {
	if a == nil {
		return nil
	}
	return a.events.Get(c)
}

// PutEvents files an event slab back. The caller asserts nothing
// aliases it. nil-safe.
func (a *Arena) PutEvents(s []Event) {
	if a == nil {
		return
	}
	a.events.Put(s)
}

// ReleaseTrace files a trace's backing slab back into the arena.
// Call it only once every view of the trace — sub-slices, frames,
// windows built from it — is provably dead. nil-safe, and safe on
// traces that were never arena-backed (their slabs simply join the
// pool).
func (a *Arena) ReleaseTrace(t Trace) {
	a.PutEvents([]Event(t))
}

// Stats snapshots the arena's pool counters. nil-safe.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	return ArenaStats{Entries: a.mat.Stats(), Events: a.events.Stats()}
}

// eventBudget estimates how many events a run will emit: the
// validated request budget the api layer already enforces
// (duration × rate × scale after defaults). Scripted scenarios that
// ignore Rate overestimate, which only means extra slab headroom.
func eventBudget(pd Params) int {
	b := pd.Duration * pd.Rate * float64(pd.Scale)
	if !(b > 0) {
		return 0
	}
	if b > float64(maxSlabHint) {
		return maxSlabHint
	}
	return int(b)
}

// divHint splits an event budget across parts (chunks, workers,
// windows) to pre-size each part's slab request.
func divHint(budget, parts int) int {
	if parts < 1 {
		parts = 1
	}
	h := budget / parts
	if h > maxSlabHint {
		h = maxSlabHint
	}
	return h
}

// releaseShards files every shard's builder storage back. Safe on
// nil-arena shards (no-op puts).
func releaseShards(shards []*matrix.COO) {
	for _, sh := range shards {
		sh.Release()
	}
}
