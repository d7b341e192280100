package matrix

import "math"

// Profile summarizes the structural features of a traffic matrix that
// the paper's learning modules train students to read by eye: how
// many links are active, how concentrated traffic is on single
// sources or destinations, whether the pattern is symmetric, and
// whether hosts talk to themselves. The pattern classifier consumes a
// Profile rather than re-deriving features ad hoc.
type Profile struct {
	// N is the matrix dimension (square matrices only).
	N int
	// NNZ is the number of active (non-zero) links.
	NNZ int
	// Sum is the total packet count.
	Sum int
	// MaxEntry is the largest single-cell packet count.
	MaxEntry int
	// OutFan[i] is the number of distinct destinations source i
	// sends to; InFan[j] is the number of distinct sources that send
	// to destination j.
	OutFan, InFan []int
	// MaxOutFan and MaxInFan are the largest fan-out/fan-in.
	MaxOutFan, MaxInFan int
	// DiagNNZ is the number of non-zero diagonal cells (self loops).
	DiagNNZ int
	// OffDiagNNZ is NNZ minus DiagNNZ.
	OffDiagNNZ int
	// Symmetric reports whether the matrix equals its transpose.
	Symmetric bool
	// ActiveSources and ActiveDests count rows/cols with any
	// traffic.
	ActiveSources, ActiveDests int
	// Reciprocal counts unordered pairs {i,j}, i≠j, linked in both
	// directions.
	Reciprocal int
}

// ProfileOf computes the structural profile of a square matrix in
// one Summarize walk. Non-square matrices yield a zero profile with
// N = -1.
func ProfileOf(m Matrix) Profile {
	p, _ := Summarize(m, math.MaxInt, nil)
	return p
}

// HotSpot identifies a vertex with unusually concentrated traffic.
type HotSpot struct {
	// Index is the vertex (row/column) position.
	Index int
	// Fan is the number of distinct peers.
	Fan int
	// Packets is the traffic volume through the vertex in the
	// concentrated direction.
	Packets int
	// Direction is "in" for a destination supernode (many sources →
	// one destination) or "out" for a source supernode.
	Direction string
}

// SupernodesOf returns vertices whose fan-in or fan-out is at least
// minFan, sorted by decreasing fan then index: the "supernode"
// concept from the paper's traffic-topologies module. A vertex can
// appear twice, once per direction; Packets counts its traffic in
// that direction, self loops included.
func SupernodesOf(m Matrix, minFan int) []HotSpot {
	_, hubs := Summarize(m, minFan, nil)
	return hubs
}

// Summarize walks a square matrix once and returns its Profile and
// its supernodes at minFan (see SupernodesOf). The walk merges each
// row of the matrix with the same row of its one Transpose, so every
// linked ordered pair (i, j) — m[i][j] or m[j][i] non-zero — is seen
// exactly once, in row-major increasing-column order, with
// v = m[i][j] and r = m[j][i]; link, when non-nil, is called for each
// such pair (the diagonal included, where v == r). A non-CSR input is
// first copied into a CSR that reads each row once, and nothing is
// ever looked up with At. Non-square matrices yield Profile{N: -1},
// no supernodes, and no link calls.
func Summarize(m Matrix, minFan int, link func(i, j, v, r int)) (Profile, []HotSpot) {
	if m.Rows() != m.Cols() {
		return Profile{N: -1}, nil
	}
	c := toCSR(m)
	t := c.Transpose()
	n := c.rows
	// One slab holds the four per-host tallies and the fan buckets
	// of the supernode sort; the full slice expressions keep an
	// append to one from overwriting the next.
	tally := make([]int, 5*n+1)
	p := Profile{N: n, OutFan: tally[:n:n], InFan: tally[n : 2*n : 2*n], Symmetric: true}
	outSum, inSum, buckets := tally[2*n:3*n:3*n], tally[3*n:4*n:4*n], tally[4*n:]
	for i := 0; i < n; i++ {
		a, aEnd := c.rowPtr[i], c.rowPtr[i+1]
		b, bEnd := t.rowPtr[i], t.rowPtr[i+1]
		for a < aEnd || b < bEnd {
			var j, v, r int
			switch {
			case b == bEnd || (a < aEnd && c.colIdx[a] < t.colIdx[b]):
				j, v = c.colIdx[a], c.vals[a]
				a++
			case a == aEnd || t.colIdx[b] < c.colIdx[a]:
				j, r = t.colIdx[b], t.vals[b]
				b++
			default:
				j, v, r = c.colIdx[a], c.vals[a], t.vals[b]
				a++
				b++
			}
			if v != r {
				p.Symmetric = false
			}
			if link != nil {
				link(i, j, v, r)
			}
			if v == 0 {
				continue
			}
			p.NNZ++
			p.Sum += v
			if v > p.MaxEntry {
				p.MaxEntry = v
			}
			p.OutFan[i]++
			p.InFan[j]++
			outSum[i] += v
			inSum[j] += v
			if i == j {
				p.DiagNNZ++
			} else if i < j && r != 0 {
				p.Reciprocal++
			}
		}
	}
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
	return p, supernodes(p, outSum, inSum, buckets, minFan)
}

// supernodes lists the vertex directions with fan ≥ minFan ordered by
// decreasing fan, then index, then direction ("in" before "out"): a
// counting sort on fan, filled in index order, so no comparisons are
// made. buckets is zeroed scratch of at least max fan + 1 entries.
func supernodes(p Profile, outSum, inSum, buckets []int, minFan int) []HotSpot {
	lo, hi := max(minFan, 0), max(p.MaxOutFan, p.MaxInFan)
	if lo > hi {
		return nil
	}
	for i := 0; i < p.N; i++ {
		if p.InFan[i] >= lo {
			buckets[p.InFan[i]]++
		}
		if p.OutFan[i] >= lo {
			buckets[p.OutFan[i]]++
		}
	}
	// buckets[f] becomes the position of the first hit with fan f.
	pos := 0
	for f := hi; f >= lo; f-- {
		buckets[f], pos = pos, pos+buckets[f]
	}
	if pos == 0 {
		return nil
	}
	hits := make([]HotSpot, pos)
	for i := 0; i < p.N; i++ {
		if f := p.InFan[i]; f >= lo {
			hits[buckets[f]] = HotSpot{Index: i, Fan: f, Packets: inSum[i], Direction: "in"}
			buckets[f]++
		}
		if f := p.OutFan[i]; f >= lo {
			hits[buckets[f]] = HotSpot{Index: i, Fan: f, Packets: outSum[i], Direction: "out"}
			buckets[f]++
		}
	}
	return hits
}

// toCSR returns m itself when it is a CSR and otherwise builds one
// from its stored entries, reading each row once.
func toCSR(m Matrix) *CSR {
	if c, ok := m.(*CSR); ok {
		return c
	}
	c := NewCOO(m.Rows(), m.Cols())
	EachStored(m, c.Add)
	return c.ToCSR()
}
