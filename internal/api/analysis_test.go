package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/matrix"
	"repro/internal/netsim"
	"repro/internal/patterns"
)

// analysisGoldenPath pins every classifier reading the service
// serves. The Dense/CSR parity suites compare two representations
// through the same classifier code, so a shifted confidence or a
// changed tie-break would still pass them; this file is the oracle
// that a rewrite of the analysis layer leaves each reading
// byte-identical.
var analysisGoldenPath = filepath.Join("testdata", "analysis.golden")

// goldenWindow is the per-window reading block of one run.
type goldenWindow struct {
	Index       int      `json:"index"`
	Packets     int      `json:"packets"`
	NNZ         int      `json:"nnz"`
	AttackStage *Reading `json:"attack_stage,omitempty"`
	DDoS        *Reading `json:"ddos,omitempty"`
	Hub         *Hub     `json:"hub,omitempty"`
}

// goldenRun is one recorded analysis: a generated run's aggregate,
// supernodes and window readings, or a posted panel's Analyze result.
type goldenRun struct {
	Name       string         `json:"name"`
	Aggregate  Aggregate      `json:"aggregate"`
	Supernodes []Hub          `json:"supernodes,omitempty"`
	Windows    []goldenWindow `json:"windows,omitempty"`
}

// analysisGolden computes the recorded readings: every catalog
// scenario plus the benchmark's composed spec at 10 and 64 hosts
// (seed 42, window 10), then every figure panel through the
// posted-matrix Analyze path.
func analysisGolden(t *testing.T) []byte {
	t.Helper()
	svc := New(WithCacheCapacity(0))
	ctx := context.Background()
	specs := []string{"overlay(background, sequence(scan, ddos))"}
	for _, s := range netsim.Scenarios() {
		specs = append(specs, s.Name())
	}
	var runs []goldenRun
	for _, spec := range specs {
		for _, hosts := range []int{10, 64} {
			res, err := svc.Generate(ctx, NewGenerateRequest(spec, WithSeed(42), WithHosts(hosts), WithWindow(10)))
			if err != nil {
				t.Fatalf("%s at %d hosts: %v", spec, hosts, err)
			}
			run := goldenRun{
				Name:       fmt.Sprintf("%s@%d", spec, hosts),
				Aggregate:  res.Aggregate,
				Supernodes: supernodeHubs(matrix.SupernodesOf(res.AggregateCSR, patterns.SupernodeFanThreshold), res.Labels),
			}
			for _, w := range res.Windows {
				run.Windows = append(run.Windows, goldenWindow{
					Index: w.Index, Packets: w.Packets, NNZ: w.NNZ,
					AttackStage: w.AttackStage, DDoS: w.DDoS, Hub: w.Hub,
				})
			}
			runs = append(runs, run)
		}
	}
	for _, e := range patterns.Catalog() {
		m, _, err := e.Build()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		res, err := svc.Analyze(ctx, AnalyzeRequest{Matrix: m.ToRows()})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		runs = append(runs, goldenRun{Name: e.ID, Aggregate: res.Aggregate, Supernodes: res.Supernodes})
	}
	out, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestAnalysisGolden checks that every reading matches the recorded
// golden byte for byte. The golden was recorded once, before the
// one-pass analysis rewrite, and is never regenerated: a difference
// here is a changed reading.
func TestAnalysisGolden(t *testing.T) {
	got := analysisGolden(t)
	want, err := os.ReadFile(analysisGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("analysis readings differ from %s at line %d:\n got: %s\nwant: %s",
					analysisGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("analysis readings differ from %s in length: %d lines, want %d",
			analysisGoldenPath, len(gl), len(wl))
	}
}

// coldRun generates the benchmark's cold request shape
// (overlay(background, sequence(scan, ddos)), 60 s, scale 8, window
// 10, seed 1) at the given host count.
func coldRun(tb testing.TB, hosts int) *GenerateResult {
	tb.Helper()
	res, err := New(WithCacheCapacity(0)).Generate(context.Background(),
		NewGenerateRequest("overlay(background, sequence(scan, ddos))",
			WithSeed(1), WithHosts(hosts), WithParams(60, 0, 8), WithWindow(10)))
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// sparseWindows rebuilds the engine's windows of a run, the input
// the cold path hands windowResult.
func sparseWindows(res *GenerateResult) []netsim.SparseWindow {
	out := make([]netsim.SparseWindow, len(res.Windows))
	for k, w := range res.Windows {
		out[k] = netsim.SparseWindow{Start: w.Start, End: w.End, Matrix: w.Matrix, Events: w.Events, Dropped: w.Dropped}
	}
	return out
}

// countingMatrix wraps a matrix and counts the accessor calls made
// through it.
type countingMatrix struct {
	matrix.Matrix
	at   int
	rows []int
}

func (c *countingMatrix) At(i, j int) int {
	c.at++
	return c.Matrix.At(i, j)
}

func (c *countingMatrix) Row(i int, fn func(j, v int)) {
	c.rows[i]++
	c.Matrix.Row(i, fn)
}

// TestAnalyzeMatrixReadsEachRowOnce pins the one-pass contract: the
// whole analysis reads its input through Row at most once per row and
// never through At, and still gives the readings of a direct call.
func TestAnalyzeMatrixReadsEachRowOnce(t *testing.T) {
	inputs := map[string]matrix.Matrix{"cold@64": coldRun(t, 64).AggregateCSR}
	for _, e := range patterns.ByFamily(patterns.FamilyTopology) {
		m, _, err := e.Build()
		if err != nil {
			t.Fatal(err)
		}
		inputs[e.ID] = m
	}
	for name, m := range inputs {
		zones, err := zonesFor(m.Rows(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := &countingMatrix{Matrix: m, rows: make([]int, m.Rows())}
		got := analyzeMatrix(c, zones)
		if c.at != 0 {
			t.Errorf("%s: analyzeMatrix called At %d times, want 0", name, c.at)
		}
		for i, calls := range c.rows {
			if calls > 1 {
				t.Errorf("%s: analyzeMatrix read row %d %d times, want at most once", name, i, calls)
				break
			}
		}
		if want := analyzeMatrix(m, zones); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: readings through the wrapper differ:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// Allocation bounds on the analysis of the benchmark's cold shape.
// One summary per matrix costs a fixed handful of slabs (the CSR
// transpose, the per-host tallies, the supernode list, the reading
// slices) whatever the matrix size.
const (
	maxAnalyzeAllocs = 64
	// maxWindowAllocs bounds the readings of a whole 6-window run,
	// the DDoS role walk included.
	maxWindowAllocs = 162
)

// TestAnalysisAllocs bounds the allocations of the aggregate and the
// per-window analysis. The race detector's instrumentation allocates
// on its own, so the bound is checked only without it.
func TestAnalysisAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, hosts := range []int{64, 200} {
		res := coldRun(t, hosts)
		if got := testing.AllocsPerRun(10, func() { analyzeMatrix(res.AggregateCSR, res.Zones) }); got > maxAnalyzeAllocs {
			t.Errorf("%d hosts: analyzeMatrix allocates %.0f times, want <= %d", hosts, got, maxAnalyzeAllocs)
		}
		if len(res.Windows) != 6 {
			t.Fatalf("%d hosts: %d windows, want 6", hosts, len(res.Windows))
		}
		roles, rolesErr := patterns.AssignDDoSRoles(res.Zones)
		windows := sparseWindows(res)
		readings := func() {
			for k, w := range windows {
				windowResult(k, w, res.Zones, roles, rolesErr, res.Labels)
			}
		}
		if got := testing.AllocsPerRun(10, readings); got > maxWindowAllocs {
			t.Errorf("%d hosts: window readings allocate %.0f times, want <= %d", hosts, got, maxWindowAllocs)
		}
	}
}

// overflowMatrix is a posted matrix whose two cells of 2⁶² sum past
// the int range: unbounded, it read as -2⁶³ packets and lost its
// behavior and mixture readings.
var overflowMatrix = [][]int{{0, 1 << 62, 0}, {0, 0, 1 << 62}, {0, 0, 0}}

// TestAnalyzeRejectsOverflowingCells: a posted cell above
// MaxCellPackets is a 400, and a matrix of cells at the bound reads
// its exact packet total.
func TestAnalyzeRejectsOverflowingCells(t *testing.T) {
	svc := New()
	if _, err := svc.Analyze(context.Background(), AnalyzeRequest{Matrix: overflowMatrix}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("cells of 2^62: err = %v, want ErrInvalidRequest", err)
	}
	atBound := [][]int{{0, MaxCellPackets, 0}, {0, 0, MaxCellPackets}, {MaxCellPackets, 0, 0}}
	res, err := svc.Analyze(context.Background(), AnalyzeRequest{Matrix: atBound})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Aggregate.Profile.Packets, 3*MaxCellPackets; got != want {
		t.Errorf("packets = %d, want %d", got, want)
	}
}
