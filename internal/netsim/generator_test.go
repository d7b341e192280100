package netsim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/patterns"
)

func TestCatalogCompleteAndSorted(t *testing.T) {
	all := Scenarios()
	if len(all) < 8 {
		t.Fatalf("catalog has %d scenarios, want ≥ 8", len(all))
	}
	for i, s := range all {
		if s.Name() == "" || s.Description() == "" || s.Shape() == "" {
			t.Errorf("scenario %d has empty metadata: %+v", i, s)
		}
		if i > 0 && all[i-1].Name() >= s.Name() {
			t.Errorf("catalog not sorted: %q before %q", all[i-1].Name(), s.Name())
		}
	}
	for _, name := range []string{"background", "scan", "attack", "ddos", "worm", "exfil", "flashcrowd", "beacon"} {
		s, ok := LookupScenario(name)
		if !ok {
			t.Errorf("LookupScenario(%q) missing", name)
			continue
		}
		if s.Name() != name {
			t.Errorf("LookupScenario(%q).Name() = %q", name, s.Name())
		}
	}
	if _, ok := LookupScenario("nope"); ok {
		t.Error("unknown scenario found")
	}
}

func TestRegisterRejectsBadScenarios(t *testing.T) {
	if err := Register(scanScenario{}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := Register(emptyNameScenario{}); err == nil {
		t.Error("empty name accepted")
	}
}

// emptyNameScenario exercises Register's name validation.
type emptyNameScenario struct{ scanScenario }

func (emptyNameScenario) Name() string { return "" }

// TestGenerationDeterministicAcrossWorkers is the contract the
// concurrent engine exists to honour: for every catalog scenario,
// the trace and the aggregate matrix must be identical whether
// generated on one worker or many.
func TestGenerationDeterministicAcrossWorkers(t *testing.T) {
	net := StandardNetwork()
	p := Params{Duration: 20, Rate: 6, Scale: 3}
	const seed = 1234
	for _, s := range Scenarios() {
		serialTrace, err := GenerateTraceArena(context.Background(), nil, s, net, seed, 1, p)
		if err != nil {
			t.Fatalf("%s: serial trace: %v", s.Name(), err)
		}
		if len(serialTrace) == 0 {
			t.Fatalf("%s: empty trace", s.Name())
		}
		serialCSR, serialStats, err := GenerateCSRArena(context.Background(), nil, s, net, seed, 1, p)
		if err != nil {
			t.Fatalf("%s: serial matrix: %v", s.Name(), err)
		}
		for _, workers := range []int{2, 7, 0} { // 0 = NumCPU
			trace, err := GenerateTraceArena(context.Background(), nil, s, net, seed, workers, p)
			if err != nil {
				t.Fatalf("%s: %d-worker trace: %v", s.Name(), workers, err)
			}
			if !reflect.DeepEqual(trace, serialTrace) {
				t.Fatalf("%s: %d-worker trace differs from serial", s.Name(), workers)
			}
			csr, stats, err := GenerateCSRArena(context.Background(), nil, s, net, seed, workers, p)
			if err != nil {
				t.Fatalf("%s: %d-worker matrix: %v", s.Name(), workers, err)
			}
			if stats != serialStats {
				t.Fatalf("%s: %d-worker stats %+v differ from serial %+v", s.Name(), workers, stats, serialStats)
			}
			if !reflect.DeepEqual(csr, serialCSR) {
				t.Fatalf("%s: %d-worker matrix differs from serial", s.Name(), workers)
			}
		}
	}
}

// TestScaleMultipliesVolume checks the Scale knob adds volume
// without stretching the timeline.
func TestScaleMultipliesVolume(t *testing.T) {
	net := StandardNetwork()
	s, _ := LookupScenario("ddos")
	_, one, err := GenerateCSRArena(context.Background(), nil, s, net, 5, 2, Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, four, err := GenerateCSRArena(context.Background(), nil, s, net, 5, 2, Params{Scale: 4})
	if err != nil {
		t.Fatal(err)
	}
	if four.Events != 4*one.Events {
		t.Errorf("scale 4 events = %d, want %d", four.Events, 4*one.Events)
	}
	trace, err := GenerateTraceArena(context.Background(), nil, s, net, 5, 2, Params{Duration: 40, Scale: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Duration(); d > 40.5 {
		t.Errorf("scaled trace duration %.1f exceeds timeline", d)
	}
}

// TestNewScenarioShapesClassify is the round-trip for the extended
// catalog: each new scenario's aggregate matrix must classify as the
// behaviour it scripts.
func TestNewScenarioShapesClassify(t *testing.T) {
	net := StandardNetwork()
	zones, err := net.Zones()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]patterns.Behavior{
		"worm":       patterns.BehaviorWorm,
		"exfil":      patterns.BehaviorExfiltration,
		"flashcrowd": patterns.BehaviorFlashCrowd,
		"beacon":     patterns.BehaviorBeaconing,
	}
	for name, behavior := range want {
		s, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		csr, _, err := GenerateCSRArena(context.Background(), nil, s, net, 31, 4, Params{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, conf := patterns.ClassifyBehavior(csr.ToDense(), zones)
		if got != behavior {
			t.Errorf("%s classified as %v (%.2f), want %v", name, got, conf, behavior)
		}
		if conf < 0.8 {
			t.Errorf("%s confidence %.2f, want ≥ 0.8", name, conf)
		}
	}
	// The flash crowd is also the live internal supernode of Fig 6c.
	s, _ := LookupScenario("flashcrowd")
	csr, _, err := GenerateCSRArena(context.Background(), nil, s, net, 31, 4, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if kind := patterns.ClassifyTopology(csr.ToDense(), zones); kind != patterns.TopologyInternalSupernode {
		t.Errorf("flashcrowd topology = %v, want internal supernode", kind)
	}
}

// TestSchedulerGroundTruth checks the scripted scenarios expose a
// contiguous phase timeline covering the whole duration.
func TestSchedulerGroundTruth(t *testing.T) {
	p := Params{Duration: 40}
	for _, name := range []string{"attack", "ddos"} {
		s, _ := LookupScenario(name)
		sched, ok := s.(Scheduler)
		if !ok {
			t.Fatalf("%s does not implement Scheduler", name)
		}
		phases := sched.Schedule(p)
		if len(phases) != 4 {
			t.Fatalf("%s: %d phases, want 4", name, len(phases))
		}
		prev := 0.0
		for _, ph := range phases {
			if ph.Label == "" {
				t.Errorf("%s: unlabeled phase %+v", name, ph)
			}
			if ph.Start != prev || ph.End <= ph.Start {
				t.Errorf("%s: discontiguous phase %+v (prev end %.1f)", name, ph, prev)
			}
			prev = ph.End
		}
		if prev != 40 {
			t.Errorf("%s: timeline ends at %.1f, want 40", name, prev)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	net := StandardNetwork()
	s, _ := LookupScenario("attack")
	if _, err := GenerateTraceArena(context.Background(), nil, nil, net, 1, 1, Params{}); err == nil {
		t.Error("nil scenario accepted")
	}
	if _, err := GenerateTraceArena(context.Background(), nil, s, nil, 1, 1, Params{}); err == nil {
		t.Error("nil network accepted")
	}
	if _, _, err := GenerateCSRArena(context.Background(), nil, nil, net, 1, 1, Params{}); err == nil {
		t.Error("nil scenario accepted for CSR")
	}
	// An undersized cast must error through the concurrent path too,
	// on every worker count.
	small, err := NewNetwork([]Host{
		{Name: "WS1", Role: RoleWorkstation},
		{Name: "EXT1", Role: RoleExternal},
		{Name: "ADV1", Role: RoleAdversary},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		if _, err := GenerateTraceArena(context.Background(), nil, s, small, 1, workers, Params{Scale: 8}); err == nil {
			t.Errorf("undersized network accepted at %d workers", workers)
		}
		if _, _, err := GenerateCSRArena(context.Background(), nil, s, small, 1, workers, Params{Scale: 8}); err == nil {
			t.Errorf("undersized network accepted for CSR at %d workers", workers)
		}
	}
}

func TestScaledNetwork(t *testing.T) {
	if got := ScaledNetwork(3); got.Len() != 10 {
		t.Errorf("undersized request → %d hosts, want the standard 10", got.Len())
	}
	for _, hosts := range []int{10, 24, 64, 200} {
		net := ScaledNetwork(hosts)
		if net.Len() < hosts {
			t.Errorf("ScaledNetwork(%d) has %d hosts", hosts, net.Len())
		}
		zones, err := net.Zones()
		if err != nil {
			t.Fatalf("ScaledNetwork(%d): %v", hosts, err)
		}
		if _, err := patterns.AssignDDoSRoles(zones); err != nil {
			t.Errorf("ScaledNetwork(%d) cannot cast a DDoS: %v", hosts, err)
		}
		// Every catalog scenario must be runnable on a scaled net.
		for _, s := range Scenarios() {
			if _, err := GenerateTraceArena(context.Background(), nil, s, net, 2, 2, Params{Duration: 10, Rate: 2}); err != nil {
				t.Errorf("ScaledNetwork(%d) cannot run %s: %v", hosts, s.Name(), err)
			}
		}
	}
}

// TestLegacyAdaptersStayDeterministic pins the adapter contract: the
// same seeded RNG reproduces the same trace.
func TestLegacyAdaptersStayDeterministic(t *testing.T) {
	net := StandardNetwork()
	a, _, err := AttackScenario(net, rand.New(rand.NewSource(7)), 40)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := AttackScenario(net, rand.New(rand.NewSource(7)), 40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different attack traces")
	}
}
