package matrix

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCOOCompactSumsDuplicates(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(1, 1, 2)
	c.Add(1, 1, 3)
	c.Add(0, 2, 1)
	m := c.ToCSR()
	if m.NNZ() != 2 {
		t.Fatalf("built %d cells, want 2", m.NNZ())
	}
	if got := m.At(1, 1); got != 5 {
		t.Errorf("duplicate sum = %d, want 5", got)
	}
	// The build reads the triples; it does not compact them in place.
	if c.Len() != 3 {
		t.Errorf("ToCSR changed the COO to %d triples", c.Len())
	}
}

func TestCOOCompactDropsZeroSums(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 4)
	c.Add(0, 0, -4)
	c.Add(1, 1, 1)
	if m := c.ToCSR(); m.NNZ() != 1 || m.At(1, 1) != 1 {
		t.Errorf("zero-sum cell kept: %v", m.ToCOO().Entries())
	}
}

func TestCOOBoundsPanic(t *testing.T) {
	c := NewCOO(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Add(2, 0, 1)
}

func TestCOODenseRoundTripProperty(t *testing.T) {
	f := func(vals [12]uint8) bool {
		d := NewDense(3, 4)
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				d.Set(i, j, int(vals[i*4+j])%5)
			}
		}
		return FromDense(d).ToDense().Equal(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSRFromCOO(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(2, 0, 7)
	c.Add(0, 1, 3)
	c.Add(2, 2, 1)
	m := c.ToCSR()
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if m.At(2, 0) != 7 || m.At(0, 1) != 3 || m.At(1, 1) != 0 {
		t.Error("CSR At wrong")
	}
}

func TestCSRRowIteration(t *testing.T) {
	c := NewCOO(2, 4)
	c.Add(1, 3, 9)
	c.Add(1, 0, 4)
	m := c.ToCSR()
	var cols, vals []int
	m.Row(1, func(j, v int) {
		cols = append(cols, j)
		vals = append(vals, v)
	})
	if !reflect.DeepEqual(cols, []int{0, 3}) || !reflect.DeepEqual(vals, []int{4, 9}) {
		t.Errorf("Row iteration: cols=%v vals=%v", cols, vals)
	}
}

func TestCSRSumsMatchDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		d := NewDense(rows, cols)
		c := NewCOO(rows, cols)
		for k := 0; k < rows*cols/2+1; k++ {
			i, j, v := rng.Intn(rows), rng.Intn(cols), 1+rng.Intn(9)
			d.Add(i, j, v)
			c.Add(i, j, v)
		}
		m := c.ToCSR()
		if !reflect.DeepEqual(m.RowSums(), d.RowSums()) {
			t.Fatalf("trial %d: RowSums differ", trial)
		}
		if !reflect.DeepEqual(m.ColSums(), d.ColSums()) {
			t.Fatalf("trial %d: ColSums differ", trial)
		}
		if m.Sum() != d.Sum() {
			t.Fatalf("trial %d: Sum differs", trial)
		}
		if !m.ToDense().Equal(d) {
			t.Fatalf("trial %d: ToDense differs", trial)
		}
	}
}

func TestCSRMatVec(t *testing.T) {
	c := NewCOO(2, 3)
	c.Add(0, 0, 1)
	c.Add(0, 2, 2)
	c.Add(1, 1, 3)
	m := c.ToCSR()
	y, err := m.MatVec([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(y, []int{7, 6}) {
		t.Errorf("MatVec = %v", y)
	}
	if _, err := m.MatVec([]int{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestCSRTranspose(t *testing.T) {
	c := NewCOO(2, 3)
	c.Add(0, 2, 5)
	c.Add(1, 0, 7)
	tr := c.ToCSR().Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 0) != 5 || tr.At(0, 1) != 7 {
		t.Error("transpose values wrong")
	}
}

func TestCSRTransposeInvolutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+rng.Intn(5), 1+rng.Intn(5)
		c := NewCOO(rows, cols)
		for k := 0; k < 6; k++ {
			c.Add(rng.Intn(rows), rng.Intn(cols), 1+rng.Intn(5))
		}
		m := c.ToCSR()
		if !m.Transpose().Transpose().ToDense().Equal(m.ToDense()) {
			t.Fatalf("trial %d: transpose not involutive", trial)
		}
	}
}

func TestCSRAtBoundsPanic(t *testing.T) {
	m := NewCOO(2, 2).ToCSR()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.At(0, 5)
}

// randomCSR builds a deterministic random sparse matrix with about
// density·rows·cols entries, values in [1, 9].
func randomCSR(t testing.TB, rng *rand.Rand, rows, cols int, density float64) *CSR {
	t.Helper()
	c := NewCOO(rows, cols)
	n := int(density * float64(rows) * float64(cols))
	for k := 0; k < n; k++ {
		c.Add(rng.Intn(rows), rng.Intn(cols), 1+rng.Intn(9))
	}
	return c.ToCSR()
}

func TestCSRToCOORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomCSR(t, rng, 12, 12, 0.3)
	back := a.ToCOO().ToCSR()
	if !reflect.DeepEqual(back, a) {
		t.Error("CSR→COO→CSR round trip not identical")
	}
	if !a.ToCOO().ToDense().Equal(a.ToDense()) {
		t.Error("CSR→COO→Dense differs from CSR→Dense")
	}
}
