// Package netsim simulates the network behaviours the learning
// modules teach, at packet-event granularity, through a concurrent,
// extensible scenario engine. Where the paper's figures are
// hand-drawn snapshots, netsim generates the same shapes live:
// scripted scenarios emit timestamped events that aggregate into
// traffic matrices, which the pattern classifiers then recognize.
// The analyst examples and the Fig 9 cross-check build on this
// substrate.
//
// # Scenario interface and catalog
//
// A traffic script is a value implementing Scenario: it names
// itself, describes the traffic-matrix shape it draws, partitions
// its workload into independent chunks, and emits each chunk's
// events from a private RNG. Scenarios register into a catalog
// (Register / LookupScenario / Scenarios) that twsim lists and runs
// by name. Scenarios whose script follows a fixed timeline also
// implement Scheduler, exposing labeled phases as ground truth for
// analyst exercises.
//
// The built-in catalog holds eight scenarios. The first four mirror
// the paper's modules, the rest extend the space of teachable
// behaviours; each draws a distinct matrix shape:
//
//   - background: benign workstation↔server/external chatter — a
//     loose blue/grey mesh.
//   - scan: one adversary probes every blue host — an external
//     supernode of unreciprocated fan-out (Fig 6d live).
//   - attack: the four-stage notional attack — traffic migrating
//     red→red, red→grey, grey→blue, blue→blue across four
//     zone-pure quarters (Fig 7 live).
//   - ddos: the four-component DDoS — C2 clique, botnet tasking
//     rows, a heavy fan-in flood column on the victim, and
//     backscatter (Fig 9 live).
//   - worm: a self-propagating worm doubling through blue space —
//     one red→blue seed plus an unreciprocated blue→blue cascade
//     tree.
//   - exfil: bulk data theft — a single dominant blue→grey cell
//     whose volume dwarfs its reverse.
//   - flashcrowd: a legitimate demand spike — an internal supernode
//     of heavy reciprocated fan-in on the blue server, the benign
//     twin of the DDoS flood.
//   - beacon: covert C2 beaconing — a single light periodic
//     blue→red link.
//
// patterns.ClassifyBehavior recognizes the four extended shapes;
// patterns.ClassifyTopology, ClassifyAttackStage, and ClassifyDDoS
// cover the originals; patterns.ClassifyMixtureOf scores all eight
// at once for composed traffic.
//
// # Composition algebra
//
// Real traffic is never one pure pattern, so the catalog is closed
// under composition: Overlay layers scenarios over one timeline,
// Sequence concatenates them in time (with optional per-step
// durations), Dilate stretches a script's tempo, Amplify multiplies
// its volume, and Relabel permutes its hosts (the matrix-level twin
// of matrix.PermuteCSR). Every combinator implements the same
// Scenario chunk contract, deriving its partition from its
// components', so composed scenarios shard across workers exactly
// like primitives; Scheduler phase lists are merged, offset, or
// stretched so ground truth survives. ParseSpec builds combinator
// trees from expressions like
//
//	overlay(background, sequence(scan@10s, ddos))
//
// and RegisterSpec files the result into the catalog at runtime.
//
// # Concurrency model
//
// Generation is deterministic-parallel. A scenario's Chunks method
// fixes a worker-count-independent partition of its workload;
// GenerateTraceArena and the engine behind GenerateCSRArena and
// StreamCSRArena fan the chunk indices across a worker pool, seeding
// chunk k's RNG from (seed, k) by splitmix64. Workers accumulate into
// private stores — per-chunk trace slots, or per-worker sparse COO
// shards merged by matrix.MergeCOOArena, whose duplicate-summing
// compaction is order-insensitive — so for a given (scenario,
// network, seed, params) the aggregate output is bit-identical on 1
// worker or N. The legacy Background, Scan, AttackScenario, and
// DDoSScenario functions are thin adapters running the same scripts
// on one worker.
//
// # One engine, one entry point per operation
//
// Each operation has exactly one exported form, taking an *Arena (nil
// allocates fresh) and, for every operation but the single-pass
// trace fold, a context: GenerateTraceArena materializes
// the sorted trace, GenerateCSRArena returns the whole-run aggregate,
// StreamCSRArena returns the aggregate and also hands each
// fixed-length window's CSR to a callback the moment it seals, and
// Trace.WindowsCSRArena and Trace.SparseMatrixArena fold a trace.
// GenerateCSRArena and StreamCSRArena are one engine — the first is
// the second with no windows — and neither materializes a trace, so
// the serving path never sorts or holds one. Sealing is driven by the
// optional ChunkSpanner interface (conservative per-chunk time
// bounds; every catalog entry and combinator implements it), and
// because a window's CSR is a pure function of its event multiset,
// streamed windows are bit-identical to Trace.WindowsCSRArena's for
// any worker count — pinned by the parity suites, which use the
// trace and its folds as the reference.
package netsim
