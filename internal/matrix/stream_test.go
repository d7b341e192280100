package matrix

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestWindowCompactorMatchesPerWindowCOO is the compactor's core
// contract: for a random triple stream folded concurrently in random
// order, every sealed window is bit-identical to a COO built from the
// same window's triples sequentially.
func TestWindowCompactorMatchesPerWindowCOO(t *testing.T) {
	const n, windows, triples = 12, 7, 5000
	rng := rand.New(rand.NewSource(1))
	type triple struct{ w, i, j, v int }
	all := make([]triple, triples)
	for k := range all {
		all[k] = triple{rng.Intn(windows), rng.Intn(n), rng.Intn(n), 1 + rng.Intn(5)}
	}

	// Sequential reference, in emission order.
	ref := make([]*COO, windows)
	for w := range ref {
		ref[w] = NewCOO(n, n)
	}
	for _, tr := range all {
		ref[tr.w].Add(tr.i, tr.j, tr.v)
	}

	// Concurrent fold in shuffled order across 8 goroutines.
	wc := NewWindowCompactorArena(nil, n, n, windows, 0)
	shuffled := append([]triple(nil), all...)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(shuffled); k += 8 {
				tr := shuffled[k]
				wc.Add(tr.w, tr.i, tr.j, tr.v)
				wc.Note(tr.w, 1, 0)
			}
		}(g)
	}
	wg.Wait()

	for w := 0; w < windows; w++ {
		got, events, _ := wc.Seal(w)
		want := ref[w].ToCSR()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("window %d: sealed CSR differs from sequential reference", w)
		}
		wantEvents := 0
		for _, tr := range all {
			if tr.w == w {
				wantEvents++
			}
		}
		if events != wantEvents {
			t.Errorf("window %d: events = %d, want %d", w, events, wantEvents)
		}
	}
}

// TestWindowCompactorEmptyWindow pins that an untouched window seals
// to a valid empty CSR, not nil.
func TestWindowCompactorEmptyWindow(t *testing.T) {
	wc := NewWindowCompactorArena(nil, 4, 4, 2, 0)
	m, events, extra := wc.Seal(1)
	if m == nil || m.NNZ() != 0 || m.Rows() != 4 || m.Cols() != 4 {
		t.Fatalf("empty window sealed to %+v", m)
	}
	if events != 0 || extra != 0 {
		t.Fatalf("empty window tallies = %d, %d", events, extra)
	}
}

// TestWindowCompactorSealReleasesStorage pins the bounded-memory
// property the streaming engine relies on: sealing drops the shard,
// so PendingNNZ shrinks as windows close.
func TestWindowCompactorSealReleasesStorage(t *testing.T) {
	wc := NewWindowCompactorArena(nil, 8, 8, 3, 0)
	for k := 0; k < 100; k++ {
		wc.Add(k%3, k%8, (k*3)%8, 1)
	}
	before := wc.PendingNNZ()
	if before != 100 {
		t.Fatalf("PendingNNZ = %d before sealing, want 100", before)
	}
	wc.Seal(0)
	wc.Seal(1)
	if after := wc.PendingNNZ(); after >= before || after == 0 {
		t.Fatalf("PendingNNZ = %d after sealing two of three windows (was %d)", after, before)
	}
}

// TestWindowCompactorMisusePanics pins the guard rails: double seal
// and add-after-seal are engine bugs and must fail loudly.
func TestWindowCompactorMisusePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	wc := NewWindowCompactorArena(nil, 2, 2, 1, 0)
	wc.Seal(0)
	expectPanic("double seal", func() { wc.Seal(0) })
	expectPanic("add after seal", func() { wc.Add(0, 0, 0, 1) })
	expectPanic("note after seal", func() { wc.Note(0, 1, 0) })
}
