package matrix

import (
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

// mapSum is the reference the builder is checked against, sharing
// none of its code: the triples summed per cell in a map, zero sums
// dropped.
func mapSum(entries []Entry) map[[2]int]int {
	sum := make(map[[2]int]int)
	for _, e := range entries {
		sum[[2]int{e.Row, e.Col}] += e.Val
	}
	for k, v := range sum {
		if v == 0 {
			delete(sum, k)
		}
	}
	return sum
}

// assertCSRIs checks the CSR layout invariants — rows×cols shape,
// row pointers from 0 to NNZ, strictly ascending in-range columns
// within each row, no stored zero — and that the stored cells are
// exactly want.
func assertCSRIs(t testing.TB, m *CSR, rows, cols int, want map[[2]int]int) {
	t.Helper()
	if m.rows != rows || m.cols != cols {
		t.Fatalf("shape %dx%d, want %dx%d", m.rows, m.cols, rows, cols)
	}
	if len(m.rowPtr) != rows+1 || m.rowPtr[0] != 0 || m.rowPtr[rows] != len(m.vals) || len(m.colIdx) != len(m.vals) {
		t.Fatalf("malformed arrays: rowPtr %v, %d cols, %d vals", m.rowPtr, len(m.colIdx), len(m.vals))
	}
	for i := 0; i < rows; i++ {
		if m.rowPtr[i] > m.rowPtr[i+1] {
			t.Fatalf("rowPtr decreases at row %d: %v", i, m.rowPtr)
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j, v := m.colIdx[k], m.vals[k]
			if j < 0 || j >= cols || (k > m.rowPtr[i] && m.colIdx[k-1] >= j) {
				t.Fatalf("row %d: columns out of range or order: %v", i, m.colIdx[m.rowPtr[i]:m.rowPtr[i+1]])
			}
			if v == 0 || want[[2]int{i, j}] != v {
				t.Fatalf("cell (%d,%d) = %d, want %d", i, j, v, want[[2]int{i, j}])
			}
		}
	}
	if len(m.vals) != len(want) {
		t.Fatalf("%d stored cells, want %d", len(m.vals), len(want))
	}
}

// allEntries concatenates the parts' triples.
func allEntries(parts ...*COO) []Entry {
	var out []Entry
	for _, p := range parts {
		out = append(out, p.Entries()...)
	}
	return out
}

func TestMergeCOOMatchesSerialSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parts := []*COO{
		randomCOO(rng, 16, 16, 300),
		randomCOO(rng, 16, 16, 1),
		NewCOO(16, 16), // empty shard
		randomCOO(rng, 16, 16, 120),
	}
	merged, err := SumCSR(nil, parts[0], nil, parts[1], parts[2], parts[3])
	if err != nil {
		t.Fatal(err)
	}
	assertCSRIs(t, merged, 16, 16, mapSum(allEntries(parts...)))
	// The sum is the whole's CSR: one accumulator holding every triple.
	whole := NewCOO(16, 16)
	for _, e := range allEntries(parts...) {
		whole.Add(e.Row, e.Col, e.Val)
	}
	if !reflect.DeepEqual(merged, whole.ToCSR()) {
		t.Error("summed shards differ from the whole's CSR")
	}
}

func TestMergeCOOSinglePartAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	solo := randomCOO(rng, 8, 8, 50)
	merged, err := SumCSR(nil, solo)
	if err != nil {
		t.Fatal(err)
	}
	assertCSRIs(t, merged, 8, 8, mapSum(solo.Entries()))
	if !reflect.DeepEqual(merged, solo.ToCSR()) {
		t.Error("single-part sum differs from ToCSR")
	}
	if _, err := SumCSR(nil); err == nil {
		t.Error("sum of nothing accepted")
	}
	if _, err := SumCSR(nil, nil, nil); err == nil {
		t.Error("sum of only nils accepted")
	}
	if _, err := SumCSR(nil, NewCOO(4, 4), NewCOO(4, 5)); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestMergeCOOCancelsToZero(t *testing.T) {
	a := NewCOO(4, 4)
	a.Add(1, 2, 5)
	b := NewCOO(4, 4)
	b.Add(1, 2, -5)
	b.Add(0, 0, 3)
	merged, err := SumCSR(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{{Row: 0, Col: 0, Val: 3}}
	if got := merged.ToCOO().Entries(); !reflect.DeepEqual(got, want) {
		t.Errorf("entries = %v, want %v", got, want)
	}
}
