package netsim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/matrix"
)

// The pooled generation paths must be bit-identical to the pool-free
// ones — a nil arena IS the pool-free path, so each test runs the
// same configuration through both and compares outputs, then runs the
// pooled side again to prove the recycled slabs reproduce the same
// result (the use-after-release hazard a pooling bug would create).

func arenaTestConfig(t *testing.T) (Scenario, *Network, Params) {
	t.Helper()
	s, ok := LookupScenario("background")
	if !ok {
		t.Fatal("background scenario missing")
	}
	return s, ScaledNetwork(48), Params{Duration: 30, Rate: 20}
}

func TestGenerateTraceArenaParity(t *testing.T) {
	s, net, p := arenaTestConfig(t)
	plain, err := GenerateTraceArena(context.Background(), nil, s, net, 5, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena()
	for round := 0; round < 3; round++ {
		tr, err := GenerateTraceArena(context.Background(), a, s, net, 5, 4, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, tr) {
			t.Fatalf("round %d: arena trace differs from plain trace", round)
		}
		a.ReleaseTrace(tr)
	}
	st := a.Stats()
	if st.Events.Hits == 0 {
		t.Fatalf("no event slab reuse across rounds: %+v", st.Events)
	}
}

func TestGenerateCSRArenaParity(t *testing.T) {
	s, net, p := arenaTestConfig(t)
	plain, plainStats, err := GenerateCSRArena(context.Background(), nil, s, net, 9, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena()
	var first *matrix.CSR
	for round := 0; round < 3; round++ {
		csr, stats, err := GenerateCSRArena(context.Background(), a, s, net, 9, 4, p)
		if err != nil {
			t.Fatal(err)
		}
		if stats != plainStats {
			t.Fatalf("round %d: stats %+v != %+v", round, stats, plainStats)
		}
		if !reflect.DeepEqual(plain.ToCOO().Entries(), csr.ToCOO().Entries()) {
			t.Fatalf("round %d: arena CSR differs from plain CSR", round)
		}
		if first == nil {
			first = csr
		}
	}
	// The first round's CSR is consumer-owned: later rounds recycling
	// builder slabs must not have touched it.
	if !reflect.DeepEqual(plain.ToCOO().Entries(), first.ToCOO().Entries()) {
		t.Fatal("consumer-owned CSR corrupted by later arena rounds")
	}
	if st := a.Stats(); st.Entries.Hits == 0 {
		t.Fatalf("no triple slab reuse across rounds: %+v", st.Entries)
	}
}

func TestStreamCSRArenaParity(t *testing.T) {
	s, net, p := arenaTestConfig(t)
	collect := func(a *Arena) ([]SparseWindow, *matrix.CSR, Stats) {
		var wins []SparseWindow
		agg, stats, err := StreamCSRArena(context.Background(), a, s, net, 3, 4, p, 5, 0, func(i int, w SparseWindow) error {
			if i != len(wins) {
				t.Fatalf("window %d out of order (have %d)", i, len(wins))
			}
			wins = append(wins, w)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return wins, agg, stats
	}
	plainWins, plainAgg, plainStats := collect(nil)
	a := NewArena()
	for round := 0; round < 3; round++ {
		wins, agg, stats := collect(a)
		if stats != plainStats {
			t.Fatalf("round %d: stats differ", round)
		}
		if len(wins) != len(plainWins) {
			t.Fatalf("round %d: %d windows, want %d", round, len(wins), len(plainWins))
		}
		for i := range wins {
			if !reflect.DeepEqual(plainWins[i].Matrix.ToCOO().Entries(), wins[i].Matrix.ToCOO().Entries()) {
				t.Fatalf("round %d: window %d differs", round, i)
			}
			if wins[i].Events != plainWins[i].Events || wins[i].Dropped != plainWins[i].Dropped {
				t.Fatalf("round %d: window %d tallies differ", round, i)
			}
		}
		if !reflect.DeepEqual(plainAgg.ToCOO().Entries(), agg.ToCOO().Entries()) {
			t.Fatalf("round %d: aggregate differs", round)
		}
	}
	if st := a.Stats(); st.Entries.Hits == 0 {
		t.Fatalf("no slab reuse across streaming rounds: %+v", st.Entries)
	}
}

func TestWindowsCSRArenaParity(t *testing.T) {
	s, net, p := arenaTestConfig(t)
	tr, err := GenerateTraceArena(context.Background(), nil, s, net, 2, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := tr.WindowsCSRArena(context.Background(), nil, net, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena()
	for round := 0; round < 2; round++ {
		wins, err := tr.WindowsCSRArena(context.Background(), a, net, 6, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(wins) != len(plain) {
			t.Fatalf("round %d: %d windows, want %d", round, len(wins), len(plain))
		}
		for i := range wins {
			if !reflect.DeepEqual(plain[i].Matrix.ToCOO().Entries(), wins[i].Matrix.ToCOO().Entries()) {
				t.Fatalf("round %d: window %d differs", round, i)
			}
		}
	}
	if st := a.Stats(); st.Entries.Puts == 0 {
		t.Fatalf("window shards were not released: %+v", st.Entries)
	}
}

func TestSparseMatrixArenaParity(t *testing.T) {
	s, net, p := arenaTestConfig(t)
	tr, err := GenerateTraceArena(context.Background(), nil, s, net, 4, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	plain, plainDropped := tr.SparseMatrixArena(nil, net)
	a := NewArena()
	for round := 0; round < 2; round++ {
		csr, dropped := tr.SparseMatrixArena(a, net)
		if dropped != plainDropped {
			t.Fatalf("round %d: dropped %d, want %d", round, dropped, plainDropped)
		}
		if !reflect.DeepEqual(plain.ToCOO().Entries(), csr.ToCOO().Entries()) {
			t.Fatalf("round %d: aggregate differs", round)
		}
	}
	if st := a.Stats(); st.Entries.Puts == 0 {
		t.Fatalf("accumulator was not released: %+v", st.Entries)
	}
}
