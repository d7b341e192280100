package cluster

import (
	"fmt"
	"sort"

	"repro/internal/api"
)

// ringReplicas is the virtual-node count per backend. More vnodes
// smooth the keyspace split (the expected per-backend load imbalance
// shrinks like 1/√replicas) at the cost of a longer sorted point
// list; 128 keeps the max/mean load under ~1.3 for small clusters.
const ringReplicas = 128

// point is one virtual node: a position on the ring and the backend
// slot that owns the arc ending there.
type point struct {
	hash uint64
	slot int
}

// hashRing is a consistent hash ring over integer backend slots: it
// maps canonical request keys (netsim.SpecString plus normalized
// parameters — the same identity the result cache uses) onto slots,
// so the same spec always lands on the same backend, and adding or
// removing a backend moves only ~K/N of the keyspace (the
// consistent-hashing guarantee the ring property tests pin). It is
// not safe for concurrent mutation (add/remove); pick is read-only.
// Cluster guards all three with its membership lock.
type hashRing struct {
	points []point // sorted by hash
	slots  map[int]bool
}

// newHashRing builds a ring over slots 0..n-1.
func newHashRing(n int) *hashRing {
	r := &hashRing{slots: map[int]bool{}}
	for s := 0; s < n; s++ {
		r.add(s)
	}
	return r
}

// vnodeHash positions one of a slot's virtual nodes. api.KeyHash is
// the same avalanche-finalized hash the cache stripes use, so vnode
// positions and key positions draw from one well-mixed space.
func vnodeHash(slot, replica int) uint64 {
	return api.KeyHash(fmt.Sprintf("worker/%d/vnode/%d", slot, replica))
}

// add inserts a slot's virtual nodes. Adding an existing slot is a
// no-op, so rebuilding a ring from a slot list is idempotent.
func (r *hashRing) add(slot int) {
	if r.slots[slot] {
		return
	}
	r.slots[slot] = true
	for i := 0; i < ringReplicas; i++ {
		r.points = append(r.points, point{hash: vnodeHash(slot, i), slot: slot})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// remove deletes a slot's virtual nodes; keys it owned fall to the
// next vnode clockwise, and every other key keeps its slot — the
// bounded-movement half of the consistency property.
func (r *hashRing) remove(slot int) {
	if !r.slots[slot] {
		return
	}
	delete(r.slots, slot)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.slot != slot {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// pick returns the slot owning key: the first virtual node at or
// clockwise after the key's hash. A single-slot ring always returns
// that slot. An empty ring — zero slots, or every slot removed —
// returns ErrNoBackends instead of panicking, so a proxy drained of
// backends degrades to 503s rather than crashing.
func (r *hashRing) pick(key string) (int, error) {
	if len(r.points) == 0 {
		return 0, ErrNoBackends
	}
	h := api.KeyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest vnode
	}
	return r.points[i].slot, nil
}
