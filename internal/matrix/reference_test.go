package matrix

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// referenceProfile and referenceSupernodes are the profile and the
// supernode list as computed before the one-pass Summarize: one walk
// each, reverse cells looked up with At.

func referenceProfile(m Matrix) Profile {
	if m.Rows() != m.Cols() {
		return Profile{N: -1}
	}
	n := m.Rows()
	p := Profile{
		N:         n,
		NNZ:       m.NNZ(),
		Sum:       m.Sum(),
		OutFan:    make([]int, n),
		InFan:     make([]int, n),
		Symmetric: true,
	}
	EachStored(m, func(i, j, v int) {
		if v > p.MaxEntry {
			p.MaxEntry = v
		}
		p.OutFan[i]++
		p.InFan[j]++
		if i == j {
			p.DiagNNZ++
			return
		}
		// One transposed lookup settles both symmetry and (for
		// the upper triangle) reciprocity. Lower-triangle entries
		// only matter for symmetry, so skip their lookup once
		// asymmetry is established.
		if i < j || p.Symmetric {
			r := m.At(j, i)
			if r != v {
				p.Symmetric = false
			}
			if i < j && r != 0 {
				p.Reciprocal++
			}
		}
	})
	p.OffDiagNNZ = p.NNZ - p.DiagNNZ
	for i := 0; i < n; i++ {
		if p.OutFan[i] > p.MaxOutFan {
			p.MaxOutFan = p.OutFan[i]
		}
		if p.InFan[i] > p.MaxInFan {
			p.MaxInFan = p.InFan[i]
		}
		if p.OutFan[i] > 0 {
			p.ActiveSources++
		}
		if p.InFan[i] > 0 {
			p.ActiveDests++
		}
	}
	return p
}

func referenceSupernodes(m Matrix, minFan int) []HotSpot {
	p := referenceProfile(m)
	if p.N < 0 {
		return nil
	}
	rowSums := make([]int, p.N)
	colSums := make([]int, p.N)
	EachStored(m, func(i, j, v int) {
		rowSums[i] += v
		colSums[j] += v
	})
	var hits []HotSpot
	for i := 0; i < p.N; i++ {
		if p.OutFan[i] >= minFan {
			hits = append(hits, HotSpot{Index: i, Fan: p.OutFan[i], Packets: rowSums[i], Direction: "out"})
		}
		if p.InFan[i] >= minFan {
			hits = append(hits, HotSpot{Index: i, Fan: p.InFan[i], Packets: colSums[i], Direction: "in"})
		}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Fan != hits[b].Fan {
			return hits[a].Fan > hits[b].Fan
		}
		if hits[a].Index != hits[b].Index {
			return hits[a].Index < hits[b].Index
		}
		return hits[a].Direction < hits[b].Direction
	})
	return hits
}

// TestSummarizeMatchesReference checks Summarize against the
// reference profile and supernodes on random matrices through both
// representations, and checks its link contract: every ordered pair
// with a non-zero cell in either direction is visited once, in
// row-major order, with both of its values.
func TestSummarizeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		n := 1 + int(seed%17)
		d, c := randomSquare(t, seed, n, float64(seed%7)/6)
		var want [][4]int
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v, r := d.At(i, j), d.At(j, i); v != 0 || r != 0 {
					want = append(want, [4]int{i, j, v, r})
				}
			}
		}
		for _, m := range []Matrix{d, c} {
			for _, minFan := range []int{0, 1, 3, math.MaxInt} {
				var got [][4]int
				p, hubs := Summarize(m, minFan, func(i, j, v, r int) { got = append(got, [4]int{i, j, v, r}) })
				if ref := referenceProfile(m); !reflect.DeepEqual(p, ref) {
					t.Fatalf("seed %d: profile %+v, reference %+v", seed, p, ref)
				}
				if ref := referenceSupernodes(m, minFan); !reflect.DeepEqual(hubs, ref) {
					t.Fatalf("seed %d minFan %d: supernodes %v, reference %v", seed, minFan, hubs, ref)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: link visits %v, want %v", seed, got, want)
				}
			}
		}
	}
}
