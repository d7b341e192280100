package netsim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/matrix"
	"repro/internal/patterns"
)

// The sparse-end-to-end parity suite: for every catalog scenario the
// engine's aggregate (GenerateCSRArena) must equal the fold of the
// materialized trace — sparse (Trace.SparseMatrixArena) and dense
// (Trace.Matrix) — with matching run stats, and the CSR analysis path
// (matrix.Matrix accessor) must produce byte-identical results to the
// dense path on every analysis helper and on the behaviour
// classifier. This is the invariant that lets the serving path skip
// both trace and dense materialization without changing a single
// classification.

// parityNetworks are the sizes the suite checks: the paper's
// standard 10-host network and a scaled one that exercises larger
// casts and real sparsity.
func parityNetworks(t *testing.T) []*Network {
	t.Helper()
	return []*Network{StandardNetwork(), ScaledNetwork(64)}
}

func TestCatalogCSRAnalysisParity(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			for _, net := range parityNetworks(t) {
				zones, err := net.Zones()
				if err != nil {
					t.Fatal(err)
				}
				csr, stats, err := GenerateCSRArena(context.Background(), nil, s, net, 42, 0, Params{})
				if err != nil {
					t.Fatal(err)
				}
				trace, err := GenerateTraceArena(context.Background(), nil, s, net, 42, 0, Params{})
				if err != nil {
					t.Fatal(err)
				}
				folded, dropped := trace.SparseMatrixArena(nil, net)
				if !reflect.DeepEqual(csr, folded) {
					t.Fatalf("hosts=%d: engine aggregate differs from the trace fold", net.Len())
				}
				want := Stats{Events: len(trace), Packets: trace.TotalPackets(), Dropped: dropped}
				if stats != want {
					t.Errorf("hosts=%d: stats %+v, trace says %+v", net.Len(), stats, want)
				}
				dense, denseDropped := trace.Matrix(net)
				if denseDropped != dropped {
					t.Errorf("hosts=%d: dense fold dropped %d, sparse fold %d", net.Len(), denseDropped, dropped)
				}
				if !csr.ToDense().Equal(dense) {
					t.Fatalf("hosts=%d: CSR densifies differently from the dense trace fold", net.Len())
				}

				dp, cp := matrix.ProfileOf(dense), matrix.ProfileOf(csr)
				if !reflect.DeepEqual(dp, cp) {
					t.Errorf("hosts=%d: Profile mismatch\ndense: %+v\ncsr:   %+v", net.Len(), dp, cp)
				}

				wantHubs := matrix.SupernodesOf(dense, patterns.SupernodeFanThreshold)
				gotHubs := matrix.SupernodesOf(csr, patterns.SupernodeFanThreshold)
				if !reflect.DeepEqual(gotHubs, wantHubs) {
					t.Errorf("hosts=%d: Supernodes mismatch: %v vs %v", net.Len(), gotHubs, wantHubs)
				}

				if got, want := matrix.IsolatedPairsOf(csr), matrix.IsolatedPairsOf(dense); !reflect.DeepEqual(got, want) {
					t.Errorf("hosts=%d: IsolatedPairs mismatch: %v vs %v", net.Len(), got, want)
				}
				if got, want := matrix.DegreeHistogramOf(csr), matrix.DegreeHistogramOf(dense); !reflect.DeepEqual(got, want) {
					t.Errorf("hosts=%d: DegreeHistogram mismatch", net.Len())
				}
				if got, want := matrix.TopLinksOf(csr, 25), matrix.TopLinksOf(dense, 25); !reflect.DeepEqual(got, want) {
					t.Errorf("hosts=%d: TopLinks mismatch: %v vs %v", net.Len(), got, want)
				}

				db, dconf := patterns.ClassifyBehavior(dense, zones)
				cb, cconf := patterns.ClassifyBehaviorOf(csr, zones)
				if db != cb || dconf != cconf {
					t.Errorf("hosts=%d: ClassifyBehavior mismatch: dense %v (%v), csr %v (%v)",
						net.Len(), db, dconf, cb, cconf)
				}

				dm := patterns.ClassifyMixture(dense, zones)
				cm := patterns.ClassifyMixtureOf(csr, zones)
				if !reflect.DeepEqual(dm, cm) {
					t.Errorf("hosts=%d: ClassifyMixture mismatch: dense %v, csr %v", net.Len(), dm, cm)
				}

				if got, want := patterns.ClassifyTopologyOf(csr, zones), patterns.ClassifyTopology(dense, zones); got != want {
					t.Errorf("hosts=%d: ClassifyTopology mismatch: %v vs %v", net.Len(), got, want)
				}
				ds, dsc := patterns.ClassifyAttackStage(dense, zones)
				cs, csc := patterns.ClassifyAttackStageOf(csr, zones)
				if ds != cs || dsc != csc {
					t.Errorf("hosts=%d: ClassifyAttackStage mismatch: %v (%v) vs %v (%v)",
						net.Len(), ds, dsc, cs, csc)
				}

				if roles, err := patterns.AssignDDoSRoles(zones); err == nil {
					dd, ddc := patterns.ClassifyDDoS(dense, roles)
					cd, cdc := patterns.ClassifyDDoSOf(csr, roles)
					if dd != cd || ddc != cdc {
						t.Errorf("hosts=%d: ClassifyDDoS mismatch: %v (%v) vs %v (%v)",
							net.Len(), dd, ddc, cd, cdc)
					}
				}
			}
		})
	}
}
