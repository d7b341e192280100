package matrix

import (
	"context"
	"reflect"
	"testing"
)

// Native fuzz targets for the sparse substrate. Each target decodes
// the fuzz input as a triple stream on a small matrix and asserts
// the algebraic invariants the concurrent engine leans on:
// compaction idempotence, merge-order invariance, and lossless
// representation round trips. Seed corpora live in
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

// entriesEqual compares triple slices element-wise, treating nil and
// empty as equal (compaction may leave either).
func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertCompactInvariants checks the compacted-entries contract:
// row-major sorted, unique coordinates, no zero values.
func assertCompactInvariants(t *testing.T, es []Entry) {
	t.Helper()
	for k, e := range es {
		if e.Val == 0 {
			t.Fatalf("entry %d has zero value: %+v", k, e)
		}
		if k > 0 && !entryLess(es[k-1], e) {
			t.Fatalf("entries %d,%d out of order or duplicated: %+v, %+v", k-1, k, es[k-1], e)
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
		want := denseReference(rows, cols, entries)

		c := buildCOO(rows, cols, entries)
		c.Compact()
		assertCompactInvariants(t, c.entries)
		if !c.ToDense().Equal(want) {
			t.Fatal("Compact changed the accumulated matrix")
		}
		// Idempotence, with the fast-path flag cleared so the dedup
		// pass genuinely re-runs over already-compact entries.
		once := append([]Entry(nil), c.entries...)
		c.compacted = false
		c.Compact()
		if !entriesEqual(c.entries, once) {
			t.Fatalf("Compact not idempotent: %v then %v", once, c.entries)
		}
		// CompactParallel must agree with Compact for any worker
		// count, including degenerate ones.
		for _, workers := range []int{1, 2, 7} {
			p := buildCOO(rows, cols, entries).CompactParallel(workers)
			if !entriesEqual(p.entries, once) {
				t.Fatalf("CompactParallel(%d) = %v, want %v", workers, p.entries, once)
			}
		}
	})
}

func FuzzMergeCOO(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, entries := decodeTriples(data)
		want := denseReference(rows, cols, entries)

		for _, shards := range []int{1, 2, 3, 5} {
			parts := make([]*COO, shards)
			for s := range parts {
				parts[s] = NewCOO(rows, cols)
			}
			for k, e := range entries {
				parts[k%shards].Add(e.Row, e.Col, e.Val)
			}
			merged, err := MergeCOOArena(context.Background(), nil, parts...)
			if err != nil {
				t.Fatal(err)
			}
			assertCompactInvariants(t, merged.entries)
			if !merged.ToDense().Equal(want) {
				t.Fatalf("MergeCOO over %d shards changed the matrix", shards)
			}
			// Order invariance: merging the shards reversed (fresh
			// accumulators — MergeCOO compacts its inputs in place)
			// must produce identical entries.
			rev := make([]*COO, shards)
			for s := range rev {
				rev[s] = NewCOO(rows, cols)
			}
			for k, e := range entries {
				rev[k%shards].Add(e.Row, e.Col, e.Val)
			}
			for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
				rev[l], rev[r] = rev[r], rev[l]
			}
			back, err := MergeCOOArena(context.Background(), nil, rev...)
			if err != nil {
				t.Fatal(err)
			}
			if !entriesEqual(back.entries, merged.entries) {
				t.Fatalf("shard order changed MergeCOO output: %v vs %v", back.entries, merged.entries)
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
		assertCompactInvariants(t, back.entries)
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
		// Double transpose is the identity, serial or parallel.
		if !reflect.DeepEqual(csr.Transpose().Transpose(), csr) {
			t.Fatal("Transpose∘Transpose not identity")
		}
		if !reflect.DeepEqual(csr.TransposeParallel(3).TransposeParallel(2), csr) {
			t.Fatal("TransposeParallel∘TransposeParallel not identity")
		}
	})
}
