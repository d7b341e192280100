package matrix

import (
	"fmt"
	"sort"
)

// The one triples→CSR builder. Every path that turns event triples
// into a matrix ends here: COO.ToCSR over one accumulator, SumCSR over
// the netsim engine's per-worker shards. Rows are bounded by the host
// count, so the build is a counting sort by row rather than a
// comparison sort over every triple:
//
//  1. histogram the row counts across all parts;
//  2. prefix-sum them into row starts;
//  3. scatter the triples into a row-ordered scratch slab from the
//     arena;
//  4. sum each row's columns in a stamp-marked dense accumulator,
//     sort the touched columns, and drop zero sums;
//  5. copy the result into exact-size CSR arrays.
//
// The output is a pure function of the triple multiset — identical
// for any split of the triples into parts and any part order — which
// is what lets the concurrent engine promise the same matrix on 1
// worker or N.

// SumCSR sums sharded COO accumulators into one CSR matrix. Every
// part must share the same dimensions; nil parts are skipped, and the
// parts themselves are only read, so the caller may Release them
// afterwards. The scatter scratch comes from the arena (nil allocates
// fresh — identical output either way) and is refiled before SumCSR
// returns; the CSR's arrays are always freshly allocated.
func SumCSR(a *Arena, parts ...*COO) (*CSR, error) {
	var live []*COO
	for _, p := range parts {
		if p != nil {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("matrix: SumCSR of no matrices")
	}
	rows, cols := live[0].rows, live[0].cols
	for _, p := range live[1:] {
		if p.rows != rows || p.cols != cols {
			return nil, fmt.Errorf("matrix: SumCSR dimension mismatch %dx%d vs %dx%d",
				rows, cols, p.rows, p.cols)
		}
	}
	return buildCSR(a, rows, cols, live), nil
}

// buildCSR runs the counting-sort build over the parts' triples.
func buildCSR(a *Arena, rows, cols int, parts []*COO) *CSR {
	// ptr[r+1] counts row r; the prefix sum turns ptr[r] into row r's
	// first scratch slot.
	ptr := make([]int, rows+1)
	for _, p := range parts {
		p.checkLive()
		for _, e := range p.entries {
			ptr[e.Row+1]++
		}
	}
	for r := 0; r < rows; r++ {
		ptr[r+1] += ptr[r]
	}
	total := ptr[rows]
	// The scatter advances ptr[r] to row r's end, which is row r+1's
	// start.
	scratch := a.GetEntries(total)[:total]
	for _, p := range parts {
		for _, e := range p.entries {
			scratch[ptr[e.Row]] = e
			ptr[e.Row]++
		}
	}

	// Each row's summed cells are written back left-packed into the
	// scratch: the write cursor never passes the row being read, and
	// ptr[r] is read (row r's end) before it is overwritten with row
	// r's output start, so ptr becomes the CSR row pointer in place.
	// acc[j] holds row r's running sum for column j while its stamp
	// is r+1, so the accumulator is never cleared between rows;
	// touched lists the row's columns in first-seen order.
	type cell struct{ stamp, sum int }
	var acc []cell
	var touched []int
	if total > 0 {
		acc = make([]cell, cols)
		touched = make([]int, 0, cols)
	}
	out, lo := 0, 0
	for r := 0; r < rows; r++ {
		hi := ptr[r]
		ptr[r] = out
		touched = touched[:0]
		for _, e := range scratch[lo:hi] {
			c := &acc[e.Col]
			if c.stamp != r+1 {
				*c = cell{stamp: r + 1}
				touched = append(touched, e.Col)
			}
			c.sum += e.Val
		}
		sort.Ints(touched)
		for _, j := range touched {
			if v := acc[j].sum; v != 0 {
				scratch[out] = Entry{Row: r, Col: j, Val: v}
				out++
			}
		}
		lo = hi
	}
	ptr[rows] = out

	m := &CSR{
		rows:   rows,
		cols:   cols,
		rowPtr: ptr,
		colIdx: make([]int, out),
		vals:   make([]int, out),
	}
	for k, e := range scratch[:out] {
		m.colIdx[k] = e.Col
		m.vals[k] = e.Val
	}
	a.PutEntries(scratch)
	return m
}
