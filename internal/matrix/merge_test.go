package matrix

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// randomCOO fills a COO with n random triples (duplicates likely) in
// a rows×cols space, values in [-2, 7].
func randomCOO(rng *rand.Rand, rows, cols, n int) *COO {
	c := NewCOO(rows, cols)
	for k := 0; k < n; k++ {
		c.Add(rng.Intn(rows), rng.Intn(cols), rng.Intn(10)-2)
	}
	return c
}

func TestMergeCOOMatchesSerialSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parts := []*COO{
		randomCOO(rng, 16, 16, 300),
		randomCOO(rng, 16, 16, 1),
		NewCOO(16, 16), // empty shard
		randomCOO(rng, 16, 16, 120),
	}
	// The reference: all triples through one serial Compact.
	reference := NewCOO(16, 16)
	for _, p := range parts {
		for _, e := range p.Entries() {
			reference.Add(e.Row, e.Col, e.Val)
		}
	}
	reference.Compact()
	merged, err := MergeCOOArena(context.Background(), nil, parts[0], nil, parts[1], parts[2], parts[3])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Entries(), reference.Entries()) {
		t.Error("merged entries differ from serial compaction")
	}
	if merged.Rows() != 16 || merged.Cols() != 16 {
		t.Errorf("merged dims %dx%d", merged.Rows(), merged.Cols())
	}
}

func TestMergeCOOSinglePartAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	solo := randomCOO(rng, 8, 8, 50)
	want := NewCOO(8, 8)
	for _, e := range solo.Entries() {
		want.Add(e.Row, e.Col, e.Val)
	}
	want.Compact()
	merged, err := MergeCOOArena(context.Background(), nil, solo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Entries(), want.Entries()) {
		t.Error("single-part merge differs from compaction")
	}
	if _, err := MergeCOOArena(context.Background(), nil); err == nil {
		t.Error("merge of nothing accepted")
	}
	if _, err := MergeCOOArena(context.Background(), nil, nil, nil); err == nil {
		t.Error("merge of only nils accepted")
	}
	if _, err := MergeCOOArena(context.Background(), nil, NewCOO(4, 4), NewCOO(4, 5)); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestMergeCOOCancelsToZero(t *testing.T) {
	a := NewCOO(4, 4)
	a.Add(1, 2, 5)
	b := NewCOO(4, 4)
	b.Add(1, 2, -5)
	b.Add(0, 0, 3)
	merged, err := MergeCOOArena(context.Background(), nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{{Row: 0, Col: 0, Val: 3}}
	if !reflect.DeepEqual(merged.Entries(), want) {
		t.Errorf("entries = %v, want %v", merged.Entries(), want)
	}
}

func TestCompactParallelMatchesCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Enough entries to cross the parallel path's minimum segment
	// size, in a small coordinate space to force heavy duplication.
	const n = 20000
	serial := randomCOO(rng, 32, 32, 0)
	parallel := NewCOO(32, 32)
	for k := 0; k < n; k++ {
		i, j, v := rng.Intn(32), rng.Intn(32), rng.Intn(9)-1
		serial.Add(i, j, v)
		parallel.Add(i, j, v)
	}
	serial.Compact()
	parallel.CompactParallel(4)
	if !reflect.DeepEqual(serial.Entries(), parallel.Entries()) {
		t.Error("parallel compaction differs from serial")
	}
	// Small inputs and degenerate worker counts fall back to the
	// serial path.
	small := NewCOO(8, 8)
	small.Add(2, 2, 1)
	small.Add(2, 2, 2)
	small.CompactParallel(8)
	if got := small.Entries(); len(got) != 1 || got[0].Val != 3 {
		t.Errorf("small fallback entries = %v", got)
	}
	empty := NewCOO(8, 8)
	empty.CompactParallel(0)
	if empty.Len() != 0 {
		t.Error("empty compaction grew entries")
	}
}

func TestCompactParallelIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c := randomCOO(rng, 64, 64, 30000)
	c.CompactParallel(3)
	once := c.Entries()
	c.CompactParallel(3)
	if !reflect.DeepEqual(once, c.Entries()) {
		t.Error("second compaction changed entries")
	}
}
