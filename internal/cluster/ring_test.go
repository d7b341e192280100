package cluster

import (
	"errors"
	"fmt"
	"testing"
)

// mustPick resolves a key on a ring the test knows is non-empty.
func mustPick(t *testing.T, r *hashRing, key string) int {
	t.Helper()
	w, err := r.pick(key)
	if err != nil {
		t.Fatalf("pick(%q): %v", key, err)
	}
	return w
}

// TestRingEmptyPickErrors: a zero-backend ring and a fully-removed
// ring both answer pick with ErrNoBackends — never a panic or an
// index-out-of-range — so a proxy drained of backends can turn the
// condition into a 503.
func TestRingEmptyPickErrors(t *testing.T) {
	empty := newHashRing(0)
	if _, err := empty.pick("any-key"); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("pick on zero-backend ring: err = %v, want ErrNoBackends", err)
	}

	drained := newHashRing(3)
	for w := 0; w < 3; w++ {
		drained.remove(w)
	}
	if len(drained.slots) != 0 {
		t.Fatalf("size after removing every backend = %d", len(drained.slots))
	}
	if _, err := drained.pick("any-key"); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("pick on fully-removed ring: err = %v, want ErrNoBackends", err)
	}

	// Recovery: adding a backend back makes the ring servable again.
	drained.add(1)
	if w := mustPick(t, drained, "any-key"); w != 1 {
		t.Fatalf("recovered ring picked backend %d, want 1", w)
	}
}

// testKeys builds K canonical-shaped keys like the ones the service
// actually routes.
func testKeys(k int) []string {
	keys := make([]string, k)
	for i := range keys {
		keys[i] = fmt.Sprintf("v1|gen|spec=overlay(background,scan-%d)|n=%d|seed=%d|dur=40|rate=8|scale=4|win=10",
			i%97, 10+i%500, i)
	}
	return keys
}

// TestRingPickDeterministic: the same key on the same cluster always
// lands on the same backend, across repeated picks and across
// independently built rings — the property that lets any front-end
// replica route identically without coordination.
func TestRingPickDeterministic(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		a, b := newHashRing(n), newHashRing(n)
		for _, key := range testKeys(500) {
			w := mustPick(t, a, key)
			if w < 0 || w >= n {
				t.Fatalf("n=%d: pick(%q) = %d, out of range", n, key, w)
			}
			if mustPick(t, a, key) != w || mustPick(t, b, key) != w {
				t.Fatalf("n=%d: pick(%q) unstable across picks or ring builds", n, key)
			}
		}
	}
}

// TestRingSingleWorkerOwnsEverything: a 1-backend ring is the
// degenerate identity a one-backend proxy leans on.
func TestRingSingleWorkerOwnsEverything(t *testing.T) {
	r := newHashRing(1)
	for _, key := range testKeys(100) {
		if w := mustPick(t, r, key); w != 0 {
			t.Fatalf("1-backend ring sent %q to backend %d", key, w)
		}
	}
}

// TestRingDistribution: with ringReplicas vnodes the keyspace
// split is usably even — every backend owns real load, and no backend
// owns more than ~2× its fair share.
func TestRingDistribution(t *testing.T) {
	const K = 20000
	for _, n := range []int{2, 4, 8} {
		r := newHashRing(n)
		counts := make([]int, n)
		for _, key := range testKeys(K) {
			counts[mustPick(t, r, key)]++
		}
		fair := K / n
		for w, c := range counts {
			if c < fair/3 {
				t.Errorf("n=%d: backend %d owns %d of %d keys (fair %d) — starved", n, w, c, K, fair)
			}
			if c > 2*fair {
				t.Errorf("n=%d: backend %d owns %d of %d keys (fair %d) — overloaded", n, w, c, K, fair)
			}
		}
	}
}

// TestRingBoundedMovementOnGrow is the consistent-hashing property:
// growing the cluster from N to N+1 backends moves at most
// ~K/(N+1) keys (we allow 2× for vnode variance), and every moved
// key moves *to the new backend* — no key shuffles between old
// backends.
func TestRingBoundedMovementOnGrow(t *testing.T) {
	const K = 20000
	keys := testKeys(K)
	for _, n := range []int{1, 2, 4, 7} {
		before := newHashRing(n)
		owners := make([]int, K)
		for i, key := range keys {
			owners[i] = mustPick(t, before, key)
		}
		after := newHashRing(n)
		after.add(n) // grow to n+1
		moved := 0
		for i, key := range keys {
			w := mustPick(t, after, key)
			if w != owners[i] {
				moved++
				if w != n {
					t.Fatalf("n=%d→%d: key %q moved from backend %d to OLD backend %d", n, n+1, key, owners[i], w)
				}
			}
		}
		limit := 2 * K / (n + 1)
		if moved > limit {
			t.Errorf("n=%d→%d: %d of %d keys moved, want ≤ %d (~K/N)", n, n+1, moved, K, limit)
		}
		if moved == 0 {
			t.Errorf("n=%d→%d: no keys moved; the new backend owns nothing", n, n+1)
		}
	}
}

// TestRingRemoveRestoresAssignments: removing a backend scatters only
// its keys to survivors, and re-adding it restores the original
// assignment exactly — vnode positions are a pure function of the
// backend index.
func TestRingRemoveRestoresAssignments(t *testing.T) {
	const K = 5000
	keys := testKeys(K)
	r := newHashRing(4)
	owners := make([]int, K)
	for i, key := range keys {
		owners[i] = mustPick(t, r, key)
	}
	r.remove(2)
	if len(r.slots) != 3 {
		t.Fatalf("size after remove = %d", len(r.slots))
	}
	for i, key := range keys {
		w := mustPick(t, r, key)
		if owners[i] != 2 && w != owners[i] {
			t.Fatalf("key %q owned by %d moved to %d when backend 2 left", key, owners[i], w)
		}
		if owners[i] == 2 && w == 2 {
			t.Fatalf("key %q still routed to removed backend 2", key)
		}
	}
	r.add(2)
	for i, key := range keys {
		if w := mustPick(t, r, key); w != owners[i] {
			t.Fatalf("key %q owner %d not restored after re-add (got %d)", key, owners[i], w)
		}
	}
}
