package matrix

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// The parallel permutation kernel. A host relabeling of a traffic
// matrix is the symmetric permutation B = P·A·Pᵀ: row and column i
// both move to perm[i]. The netsim Relabel combinator renames hosts
// at the event level; this kernel is the matrix-level equivalent, and
// the compose tests pin that the two agree cell for cell — the
// algebraic fact that makes relabeled scenarios teachable (the shape
// is invariant, only the axis labels move).

// resolveWorkers maps the workers argument onto a concrete goroutine
// count: ≤ 0 selects runtime.NumCPU(), and the count never exceeds
// rows (one band per row at most).
func resolveWorkers(workers, rows int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// rowBands splits [0,rows) into at most workers contiguous
// near-equal bands.
func rowBands(rows, workers int) [][2]int {
	workers = resolveWorkers(workers, rows)
	bands := make([][2]int, 0, workers)
	size := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += size {
		hi := lo + size
		if hi > rows {
			hi = rows
		}
		bands = append(bands, [2]int{lo, hi})
	}
	if len(bands) == 0 {
		bands = append(bands, [2]int{0, 0})
	}
	return bands
}

// parallelBands runs fn over each row band on its own goroutine.
func parallelBands(bands [][2]int, fn func(band int, lo, hi int)) {
	if len(bands) == 1 {
		fn(0, bands[0][0], bands[0][1])
		return
	}
	var wg sync.WaitGroup
	for b, span := range bands {
		wg.Add(1)
		go func(b, lo, hi int) {
			defer wg.Done()
			fn(b, lo, hi)
		}(b, span[0], span[1])
	}
	wg.Wait()
}

// checkPermutation verifies perm is a bijection on [0,n).
func checkPermutation(perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("matrix: permutation length %d does not match dimension %d", len(perm), n)
	}
	seen := make([]bool, n)
	for i, p := range perm {
		if p < 0 || p >= n {
			return fmt.Errorf("matrix: permutation maps %d to %d, outside [0,%d)", i, p, n)
		}
		if seen[p] {
			return fmt.Errorf("matrix: permutation maps two indices to %d", p)
		}
		seen[p] = true
	}
	return nil
}

// PermuteCSR returns the symmetric permutation B = P·A·Pᵀ of a square
// matrix: B[perm[i]][perm[j]] = m[i][j]. perm must be a bijection on
// [0,n). The scatter shards across input-row bands — every input row
// owns a disjoint output segment, so goroutines never contend and the
// result is byte-identical for any worker count. workers ≤ 0 selects
// runtime.NumCPU().
func PermuteCSR(m *CSR, perm []int, workers int) (*CSR, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot symmetrically permute %dx%d (not square)", m.rows, m.cols)
	}
	if err := checkPermutation(perm, m.rows); err != nil {
		return nil, err
	}
	n := m.rows
	out := &CSR{
		rows:   n,
		cols:   n,
		rowPtr: make([]int, n+1),
		colIdx: make([]int, len(m.vals)),
		vals:   make([]int, len(m.vals)),
	}
	// Output row perm[i] holds exactly row i's entries.
	for i := 0; i < n; i++ {
		out.rowPtr[perm[i]+1] = m.rowPtr[i+1] - m.rowPtr[i]
	}
	for i := 0; i < n; i++ {
		out.rowPtr[i+1] += out.rowPtr[i]
	}
	type cell struct{ col, val int }
	parallelBands(rowBands(n, workers), func(_, lo, hi int) {
		var buf []cell
		for i := lo; i < hi; i++ {
			buf = buf[:0]
			for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
				buf = append(buf, cell{col: perm[m.colIdx[k]], val: m.vals[k]})
			}
			// The permuted columns arrive out of order; CSR rows store
			// ascending columns.
			sort.Slice(buf, func(a, b int) bool { return buf[a].col < buf[b].col })
			base := out.rowPtr[perm[i]]
			for k, c := range buf {
				out.colIdx[base+k] = c.col
				out.vals[base+k] = c.val
			}
		}
	})
	return out, nil
}

// PermuteDense returns the symmetric permutation B = P·A·Pᵀ of a
// square dense matrix: the reference the sparse kernel is verified
// against.
func PermuteDense(m *Dense, perm []int) (*Dense, error) {
	if !m.IsSquare() {
		return nil, fmt.Errorf("matrix: cannot symmetrically permute %dx%d (not square)", m.Rows(), m.Cols())
	}
	if err := checkPermutation(perm, m.Rows()); err != nil {
		return nil, err
	}
	out := NewSquare(m.Rows())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if v := m.At(i, j); v != 0 {
				out.Set(perm[i], perm[j], v)
			}
		}
	}
	return out, nil
}
