package matrix

import (
	"reflect"
	"testing"
)

// Native fuzz targets for the sparse substrate. Each target decodes
// the fuzz input as a triple stream on a small matrix and asserts
// the invariants the concurrent engine leans on: the CSR build equals
// a map-sum reference that shares none of its code, the sum over
// shards is independent of the split and the part order, and
// representation round trips are lossless. Seed corpora live in
// testdata/fuzz/<Target>/ and are extended automatically by local
// `go test -fuzz` runs.

// decodeTriples interprets fuzz bytes as (rows, cols, triples):
// the first two bytes pick dimensions in [1,16], then every 3-byte
// group is one (row, col, val) with val in [-2, 6] so duplicate
// sums regularly cancel to zero.
func decodeTriples(data []byte) (rows, cols int, entries []Entry) {
	if len(data) < 2 {
		return 1, 1, nil
	}
	rows = int(data[0])%16 + 1
	cols = int(data[1])%16 + 1
	data = data[2:]
	for len(data) >= 3 {
		entries = append(entries, Entry{
			Row: int(data[0]) % rows,
			Col: int(data[1]) % cols,
			Val: int(data[2])%9 - 2,
		})
		data = data[3:]
	}
	return rows, cols, entries
}

// buildCOO assembles a COO from decoded triples.
func buildCOO(rows, cols int, entries []Entry) *COO {
	c := NewCOO(rows, cols)
	for _, e := range entries {
		c.Add(e.Row, e.Col, e.Val)
	}
	return c
}

// denseReference accumulates the triples densely: the ground truth
// every sparse representation must reproduce.
func denseReference(rows, cols int, entries []Entry) *Dense {
	d := NewDense(rows, cols)
	for _, e := range entries {
		d.Add(e.Row, e.Col, e.Val)
	}
	return d
}

// assertRowMajor checks a ToCOO triple list: row-major sorted,
// unique coordinates, no zero values.
func assertRowMajor(t *testing.T, es []Entry) {
	t.Helper()
	for k, e := range es {
		if e.Val == 0 {
			t.Fatalf("entry %d has zero value: %+v", k, e)
		}
		if k > 0 {
			p := es[k-1]
			if p.Row > e.Row || (p.Row == e.Row && p.Col >= e.Col) {
				t.Fatalf("entries %d,%d out of order or duplicated: %+v, %+v", k-1, k, p, e)
			}
		}
	}
}

func fuzzSeeds(f *testing.F) {
	f.Helper()
	f.Add([]byte{})
	f.Add([]byte{4, 4})
	f.Add([]byte{3, 3, 0, 0, 5, 0, 0, 255, 1, 2, 9, 1, 2, 9, 2, 0, 2})
	f.Add([]byte{16, 1, 7, 0, 3, 7, 0, 1, 15, 0, 6, 2, 0, 0})
}

func FuzzCompact(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, entries := decodeTriples(data)
		want := mapSum(entries)

		c := buildCOO(rows, cols, entries)
		m := c.ToCSR()
		assertCSRIs(t, m, rows, cols, want)
		// The build only reads the triples: they are unchanged, and a
		// second build over them is identical.
		if got := c.Entries(); len(got) != len(entries) || (len(got) > 0 && !reflect.DeepEqual(got, entries)) {
			t.Fatalf("ToCSR changed the triples: %v, want %v", got, entries)
		}
		if !reflect.DeepEqual(c.ToCSR(), m) {
			t.Fatal("ToCSR not repeatable")
		}
	})
}

func FuzzMergeCOO(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, entries := decodeTriples(data)
		want := mapSum(entries)
		whole := buildCOO(rows, cols, entries).ToCSR()
		assertCSRIs(t, whole, rows, cols, want)

		arena := NewArena()
		for _, shards := range []int{1, 2, 3, 5} {
			// Two splits of the same triples — round-robin and
			// contiguous runs — each summed in forward and reverse
			// part order, with a nil part mixed in, with and without
			// an arena.
			for _, split := range []func(k int) int{
				func(k int) int { return k % shards },
				func(k int) int { return k * shards / (len(entries) + 1) },
			} {
				for _, a := range []*Arena{nil, arena} {
					parts := make([]*COO, shards+1)
					for s := 0; s < shards; s++ {
						parts[s] = NewCOOIn(a, rows, cols, 0)
					}
					for k, e := range entries {
						parts[split(k)].Add(e.Row, e.Col, e.Val)
					}
					for _, order := range []string{"forward", "reverse"} {
						if order == "reverse" {
							for l, r := 0, len(parts)-1; l < r; l, r = l+1, r-1 {
								parts[l], parts[r] = parts[r], parts[l]
							}
						}
						got, err := SumCSR(a, parts...)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, whole) {
							t.Fatalf("SumCSR over %d shards (%s, arena %v) = %+v, want %+v",
								shards, order, a != nil, got, whole)
						}
					}
					for _, p := range parts {
						if p != nil {
							p.Release()
						}
					}
				}
			}
		}
	})
}

func FuzzCSRRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, entries := decodeTriples(data)
		want := denseReference(rows, cols, entries)

		csr := buildCOO(rows, cols, entries).ToCSR()
		if csr.Rows() != rows || csr.Cols() != cols {
			t.Fatalf("CSR shape %dx%d, want %dx%d", csr.Rows(), csr.Cols(), rows, cols)
		}
		if !csr.ToDense().Equal(want) {
			t.Fatal("COO→CSR→Dense differs from direct accumulation")
		}
		// Lossless COO↔CSR↔Dense round trips.
		back := csr.ToCOO()
		assertRowMajor(t, back.entries)
		if !reflect.DeepEqual(back.ToCSR(), csr) {
			t.Fatal("CSR→COO→CSR not identical")
		}
		if !reflect.DeepEqual(FromDense(csr.ToDense()).ToCSR(), csr) {
			t.Fatal("CSR→Dense→COO→CSR not identical")
		}
		// At must agree with the dense cells, including zeros.
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if csr.At(i, j) != want.At(i, j) {
					t.Fatalf("At(%d,%d) = %d, want %d", i, j, csr.At(i, j), want.At(i, j))
				}
			}
		}
		// Double transpose is the identity.
		if !reflect.DeepEqual(csr.Transpose().Transpose(), csr) {
			t.Fatal("Transpose∘Transpose not identity")
		}
	})
}
