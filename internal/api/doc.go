// Package api is the versioned programmatic façade over the whole
// traffic-matrix pipeline: every front-end — the twsim and twmodule
// CLIs, the twserve HTTP server, a future game client — goes through
// it instead of hand-wiring netsim→matrix→patterns→bridge.
//
// The surface is a small set of typed request/response pairs on a
// Service value:
//
//	svc := api.New(api.WithCacheCapacity(128))
//	res, err := svc.Generate(ctx, api.NewGenerateRequest("overlay(background, scan)",
//	        api.WithSeed(42), api.WithWindow(10)))
//
// Four properties define the layer:
//
//   - Context-aware: every call takes a context.Context, and
//     cancellation is threaded all the way into the sharded netsim
//     chunk workers, the matrix shard merge, and the window
//     compaction loops — a caller hanging up aborts the work, not
//     just the wait.
//
//   - Cached: generation is deterministic (same spec, seed, and
//     parameters ⇒ same traffic, for any worker count), so results
//     are memoized in a bounded LRU keyed by the canonical spec
//     string (netsim.SpecString) plus normalized parameters. The
//     classroom hot path — thirty students requesting the same
//     scenario — hits the cache after the first generation.
//     Cancelled or failed runs never enter the cache. GenerateStream
//     is the deliberate exception: it delivers NDJSON-ready frames
//     (meta, one per sealed window as netsim.StreamCSRArena finalizes it,
//     then summary — see StreamFrame, EncodeFrame, FrameDecoder) and
//     bypasses the cache and request coalescing entirely, since a
//     partially consumed stream must never seed either.
//
//   - Observable: a concurrent session registry tracks in-flight
//     requests (Sessions, CancelSession), CacheStats exposes
//     hit/miss/eviction counters with a per-stripe breakdown, and
//     Stats reports the full worker view (StatsReport).
//
//   - Versioned: Version names the wire contract; twserve mounts
//     every route under it ("/v1/generate", …), and results carry it
//     so stored documents are self-describing.
//
// Internally the cache, the session registry, and the singleflight
// group are lock-striped (see sharded.go): a key's stripe is a pure
// function of its avalanche-finalized hash, so concurrent requests
// contend only on stripe collisions, never on one global mutex. The
// Core interface names the full serving surface; internal/router
// fronts N Services with a consistent spec-hash ring behind the same
// interface, which is how `twserve -workers N` scales out. RouteKey
// on each request type exposes the canonical routing identity, and
// WithSessionIDs lets a fleet share one session-ID source so IDs
// stay process-unique across workers.
package api
