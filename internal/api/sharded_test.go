package api

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestShardedCacheAggregateStats: counters and occupancy aggregate
// exactly across stripes, and the per-shard breakdown sums to the
// top-level numbers.
func TestShardedCacheAggregateStats(t *testing.T) {
	c := newShardedCache(64, 8)
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(c.shards))
	}
	for i := 0; i < 40; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	hits, misses := 0, 0
	for i := 0; i < 60; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%d", i)); ok {
			hits++
		} else {
			misses++
		}
	}
	if hits != 40 || misses != 20 {
		t.Fatalf("hits=%d misses=%d, want 40/20", hits, misses)
	}
	st := c.Stats()
	if st.Hits != 40 || st.Misses != 20 || st.Len != 40 || st.Capacity != 64 {
		t.Errorf("aggregate stats = %+v", st)
	}
	if len(st.Shards) != 8 {
		t.Fatalf("breakdown has %d shards, want 8", len(st.Shards))
	}
	var sum CacheStats
	for _, sh := range st.Shards {
		sum.Hits += sh.Hits
		sum.Misses += sh.Misses
		sum.Evictions += sh.Evictions
		sum.Len += sh.Len
		sum.Capacity += sh.Capacity
	}
	if sum.Hits != st.Hits || sum.Misses != st.Misses || sum.Len != st.Len || sum.Capacity != st.Capacity {
		t.Errorf("shard breakdown sums to %+v, aggregate says %+v", sum, st)
	}
}

// TestShardedCacheTinyCapacity: a capacity smaller than the stripe
// count clamps the stripes instead of minting zero-capacity shards
// that silently never store.
func TestShardedCacheTinyCapacity(t *testing.T) {
	c := newShardedCache(1, 16)
	if len(c.shards) != 1 {
		t.Fatalf("capacity-1 cache built %d shards, want 1", len(c.shards))
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		c.Put(key, i)
		if v, ok := c.Get(key); !ok || v.(int) != i {
			t.Fatalf("capacity-1 cache dropped the entry it just stored (key %s)", key)
		}
	}
	if st := c.Stats(); st.Len != 1 || st.Capacity != 1 {
		t.Errorf("stats = %+v, want len=1 cap=1", st)
	}
}

// TestShardedCacheZeroCapacityDisables mirrors the flat-cache
// contract: capacity ≤ 0 stores nothing on any shard.
func TestShardedCacheZeroCapacityDisables(t *testing.T) {
	c := newShardedCache(0, 8)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Error("zero-capacity sharded cache stored an entry")
	}
	if st := c.Stats(); st.Len != 0 || st.Capacity != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want len=0 cap=0 misses=1", st)
	}
}

// TestShardedCacheConcurrentMixed hammers one cache from many
// goroutines under -race: correctness is "no race, no lost own
// writes within a goroutine's private key space".
func TestShardedCacheConcurrentMixed(t *testing.T) {
	c := newShardedCache(1024, DefaultShards())
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d-%d", g, i%8)
				c.Put(key, i)
				if _, ok := c.Get(key); !ok {
					t.Errorf("goroutine %d lost its own fresh write %s", g, key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Len == 0 || st.Len > 1024 {
		t.Errorf("post-churn len = %d, want within (0, 1024]", st.Len)
	}
}

// TestShardHashDispersesRealKeys pins the avalanche finalizer: raw
// FNV-1a left every odd stripe empty on real structured cache keys.
// Over 1024 gen-shaped keys and 32 stripes (mean 32/stripe), every
// stripe must see traffic and none may take more than 3× the mean.
func TestShardHashDispersesRealKeys(t *testing.T) {
	counts := make([]int, 32)
	for i := 0; i < 1024; i++ {
		key := fmt.Sprintf("%s|gen|spec=bench-%d|n=200|seed=%d|dur=40|rate=8|scale=4|win=10", Version, i, i)
		counts[shardHash(key)&31]++
	}
	for stripe, n := range counts {
		if n == 0 {
			t.Errorf("stripe %d got no keys (low-bit clustering is back)", stripe)
		}
		if n > 96 {
			t.Errorf("stripe %d got %d of 1024 keys (mean 32)", stripe, n)
		}
	}
}

// TestSessionSnapshotSortedAcrossShards pins the satellite fix:
// sessions live on different stripes, but the snapshot comes back
// ordered by ID, so /v1/sessions output is stable.
func TestSessionSnapshotSortedAcrossShards(t *testing.T) {
	store := newSessionStore(8, nil)
	var ends []func()
	for i := 0; i < 50; i++ {
		_, end := store.Begin(context.Background(), "test", fmt.Sprintf("key-%d", i))
		ends = append(ends, end)
	}
	snap := store.Snapshot()
	if len(snap) != 50 {
		t.Fatalf("snapshot has %d sessions, want 50", len(snap))
	}
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].ID < snap[j].ID }) {
		t.Errorf("snapshot not sorted by ID: %v", snap)
	}
	ids := map[int64]bool{}
	for _, s := range snap {
		if ids[s.ID] {
			t.Errorf("duplicate session ID %d", s.ID)
		}
		ids[s.ID] = true
	}
	for _, end := range ends {
		end()
	}
	if n := store.Len(); n != 0 {
		t.Errorf("store holds %d sessions after every end(), want 0", n)
	}
}

// TestSessionCancelByIDAcrossShards: an operator cancel lands on the
// right stripe and surfaces ErrSessionCancelled as the context
// cause, whichever shard the session lives on.
func TestSessionCancelByIDAcrossShards(t *testing.T) {
	store := newSessionStore(8, nil)
	type live struct {
		ctx context.Context
		end func()
	}
	byID := map[int64]live{}
	for i := 0; i < 32; i++ {
		ctx, end := store.Begin(context.Background(), "test", "k")
		byID[store.Snapshot()[len(byID)].ID] = live{ctx, end}
	}
	for id, l := range byID {
		if !store.CancelByID(id) {
			t.Fatalf("CancelByID(%d) did not find the session", id)
		}
		<-l.ctx.Done()
		if cause := context.Cause(l.ctx); !errors.Is(cause, ErrSessionCancelled) {
			t.Errorf("session %d cause = %v, want ErrSessionCancelled", id, cause)
		}
		l.end()
		if store.CancelByID(id) {
			t.Errorf("CancelByID(%d) found a finished session", id)
		}
	}
}

// TestSessionChurnAndCancelRace is the cross-shard spawn/cancel race
// under -race: goroutines churn sessions while a canceller fires
// CancelByID at random live-or-dead IDs and a reader snapshots. The
// store must stay consistent and drain to empty.
func TestSessionChurnAndCancelRace(t *testing.T) {
	store := newSessionStore(8, nil)
	var churn, aux sync.WaitGroup
	stop := make(chan struct{})

	// Churners: begin/end in tight loops; an operator cancel racing
	// a natural end() must never double-release or resurrect.
	for g := 0; g < 8; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			for i := 0; i < 300; i++ {
				_, end := store.Begin(context.Background(), "churn", fmt.Sprintf("g%d", g))
				end()
				end() // idempotent: double end must be harmless
			}
		}(g)
	}
	// Canceller: sprays IDs across the live range, hitting a mix of
	// in-flight and already-finished sessions.
	aux.Add(1)
	go func() {
		defer aux.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			store.CancelByID(int64(rng.Intn(8*300) + 1))
		}
	}()
	// Reader: snapshots must always be ID-sorted, even mid-churn.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := store.Snapshot()
			if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].ID < snap[j].ID }) {
				t.Error("mid-churn snapshot not sorted by ID")
				return
			}
		}
	}()

	churn.Wait()
	close(stop)
	aux.Wait()
	if n := store.Len(); n != 0 {
		t.Errorf("store holds %d sessions after churn, want 0", n)
	}
}

// TestServiceSharesSessionIDSource: two services on one ID source
// never mint the same session ID — the invariant a router pool needs
// for process-unique cancellation.
func TestServiceSharesSessionIDSource(t *testing.T) {
	var ids sessionIDSource
	a := newSessionStore(4, &ids)
	b := newSessionStore(4, &ids)
	var ends []func()
	for i := 0; i < 20; i++ {
		_, endA := a.Begin(context.Background(), "a", "k")
		_, endB := b.Begin(context.Background(), "b", "k")
		ends = append(ends, endA, endB)
	}
	seen := map[int64]string{}
	for _, s := range a.Snapshot() {
		seen[s.ID] = "a"
	}
	for _, s := range b.Snapshot() {
		if who, dup := seen[s.ID]; dup {
			t.Fatalf("ID %d minted by both %s and b", s.ID, who)
		}
	}
	for _, end := range ends {
		end()
	}
}

// TestShardedFlightsCoalescePerKey: the striped singleflight still
// coalesces concurrent callers of one key onto one execution.
func TestShardedFlightsCoalescePerKey(t *testing.T) {
	g := newShardedFlights(8)
	var mu sync.Mutex
	runs := 0
	gate := make(chan struct{})
	var wg sync.WaitGroup
	call := func() {
		defer wg.Done()
		v, _, err := g.do(context.Background(), "same-key", func() (any, error) {
			mu.Lock()
			runs++
			mu.Unlock()
			<-gate
			return 42, nil
		})
		if err != nil || v.(int) != 42 {
			t.Errorf("do = %v, %v", v, err)
		}
	}
	// Start the leader alone and wait until it is inside fn, so its
	// call is registered and stays registered until the gate opens.
	wg.Add(1)
	go call()
	for {
		mu.Lock()
		r := runs
		mu.Unlock()
		if r >= 1 {
			break
		}
		runtime.Gosched()
	}
	// Then start the followers and give each time to reach the group
	// before releasing the leader: a follower arriving after the
	// release would rightly start a flight of its own.
	var ready sync.WaitGroup
	for i := 1; i < 10; i++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			ready.Done()
			call()
		}()
	}
	ready.Wait()
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if runs != 1 {
		t.Errorf("fn ran %d times for one key, want 1 (coalesced)", runs)
	}
}
