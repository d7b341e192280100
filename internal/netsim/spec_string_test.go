package netsim

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// primitives returns the built-in catalog entries the random spec
// trees draw their leaves from.
func primitives(t *testing.T) []Scenario {
	t.Helper()
	names := []string{"background", "scan", "attack", "ddos", "worm", "exfil", "flashcrowd", "beacon"}
	out := make([]Scenario, len(names))
	for i, name := range names {
		s, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("catalog missing %q", name)
		}
		out[i] = s
	}
	return out
}

// randomScenario builds a random combinator tree of bounded depth.
// Timed is never generated as a direct sequence child: the grammar
// spells that position as a slot duration, so the two constructions
// share one canonical form (SequenceSteps), which the generator
// produces directly.
func randomScenario(r *rand.Rand, prims []Scenario, depth int) Scenario {
	if depth <= 0 || r.Intn(3) == 0 {
		return prims[r.Intn(len(prims))]
	}
	durations := []float64{2, 2.5, 5, 10, 12.5}
	factors := []float64{0.25, 0.5, 2, 2.5, 4}
	switch r.Intn(6) {
	case 0:
		n := 2 + r.Intn(2)
		parts := make([]Scenario, n)
		for i := range parts {
			parts[i] = randomScenario(r, prims, depth-1)
		}
		return Overlay(parts...)
	case 1:
		n := 2 + r.Intn(2)
		steps := make([]SeqStep, n)
		for i := range steps {
			inner := randomScenario(r, prims, depth-1)
			for {
				if _, timed := inner.(timedScenario); !timed {
					break
				}
				inner = inner.(timedScenario).inner
			}
			steps[i] = SeqStep{Scenario: inner}
			if r.Intn(2) == 0 {
				steps[i].Duration = durations[r.Intn(len(durations))]
			}
		}
		return SequenceSteps(steps...)
	case 2:
		return Dilate(randomScenario(r, prims, depth-1), factors[r.Intn(len(factors))])
	case 3:
		return Amplify(randomScenario(r, prims, depth-1), 1+r.Intn(4))
	case 4:
		mappings := []map[string]string{
			{"ADV1": "ADV2", "ADV2": "ADV1"},
			{"WS1": "WS3", "WS3": "WS1"},
			{"EXT1": "EXT2", "EXT2": "EXT1"},
		}
		return Relabel(randomScenario(r, prims, depth-1), mappings[r.Intn(len(mappings))])
	default:
		return Timed(randomScenario(r, prims, depth-1), durations[r.Intn(len(durations))])
	}
}

// TestSpecStringRoundTripStability is the canonical-cache-key
// property: for random combinator trees over catalog leaves,
// SpecString parses back and re-renders to the identical string —
// SpecString ∘ ParseSpec is the identity on canonical forms.
func TestSpecStringRoundTripStability(t *testing.T) {
	prims := primitives(t)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		s := randomScenario(r, prims, 3)
		spec := SpecString(s)
		parsed, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("tree %d: SpecString %q does not parse: %v", i, spec, err)
		}
		if again := SpecString(parsed); again != spec {
			t.Fatalf("tree %d: round trip not stable:\n  first:  %q\n  second: %q", i, spec, again)
		}
	}
}

// TestSpecStringRoundTripTraffic checks semantic equivalence on a
// sample of random trees: the reparsed scenario generates the exact
// same aggregate matrix.
func TestSpecStringRoundTripTraffic(t *testing.T) {
	prims := primitives(t)
	r := rand.New(rand.NewSource(11))
	net := StandardNetwork()
	// Long enough that any combination of explicitly timed sequence
	// steps (≤ 3 × 12.5s) still fits its run.
	p := Params{Duration: 45}
	for i := 0; i < 12; i++ {
		s := randomScenario(r, prims, 2)
		spec := SpecString(s)
		parsed, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("tree %d: %q does not parse: %v", i, spec, err)
		}
		want, _, err := GenerateCSRArena(context.Background(), nil, s, net, 5, 2, p)
		if err != nil {
			t.Fatalf("tree %d: original %q: %v", i, spec, err)
		}
		got, _, err := GenerateCSRArena(context.Background(), nil, parsed, net, 5, 2, p)
		if err != nil {
			t.Fatalf("tree %d: reparsed %q: %v", i, spec, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tree %d: reparsed %q generates different traffic", i, spec)
		}
	}
}

// TestSpecStringNormalizesNestedTimed: a Timed directly inside a
// Timed has no spelling in the grammar; the canonical form keeps the
// inner, binding pin.
func TestSpecStringNormalizesNestedTimed(t *testing.T) {
	scan, _ := LookupScenario("scan")
	got := SpecString(Timed(Timed(scan, 10), 5))
	if got != "scan@10s" {
		t.Errorf("nested Timed renders %q, want %q", got, "scan@10s")
	}
	if _, err := ParseSpec(got); err != nil {
		t.Errorf("normalized form %q does not parse: %v", got, err)
	}
}

// TestSpecStringRegisteredName: a registered composite renders as its
// catalog handle, so the canonical key of a named mixture is the
// name students see.
func TestSpecStringRegisteredName(t *testing.T) {
	s, err := RegisterSpec("specstring-test-mix", "", "overlay(background, scan)")
	if err != nil {
		t.Fatal(err)
	}
	defer delete(registry, "specstring-test-mix")
	if got := SpecString(s); got != "specstring-test-mix" {
		t.Errorf("SpecString of registered composite = %q", got)
	}
	parsed, err := ParseSpec(SpecString(s))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Description() != s.Description() {
		t.Error("registered name did not resolve back to the registered composite")
	}
}

// TestLoadSpecErrorPaths pins the error taxonomy: missing files wrap
// ErrSpecNotFound (and fs.ErrNotExist), unparseable files wrap the
// parse error, and both carry the path.
func TestLoadSpecErrorPaths(t *testing.T) {
	dir := t.TempDir()
	broken := filepath.Join(dir, "broken.spec")
	if err := os.WriteFile(broken, []byte("overlay(background"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.spec")
	failRead := func(string) ([]byte, error) { return nil, fmt.Errorf("disk on fire") }

	for _, tc := range []struct {
		name     string
		arg      string
		readFile func(string) ([]byte, error)
		notFound bool   // errors.Is(err, ErrSpecNotFound)
		contains string // substring the message must carry
	}{
		{"missing file", missing, os.ReadFile, true, "missing.spec"},
		{"parse error in file", broken, os.ReadFile, false, "broken.spec"},
		{"non-notfound read error", "weird.spec", failRead, false, "disk on fire"},
		{"bare unknown name, no fs", "nope", nil, false, "nope"},
	} {
		_, err := LoadSpec(tc.arg, tc.readFile)
		if err == nil {
			t.Errorf("%s: LoadSpec accepted", tc.name)
			continue
		}
		if got := errors.Is(err, ErrSpecNotFound); got != tc.notFound {
			t.Errorf("%s: errors.Is(err, ErrSpecNotFound) = %v, want %v (err %q)", tc.name, got, tc.notFound, err)
		}
		if tc.notFound != errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: fs.ErrNotExist mismatch for %q", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.contains) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.contains)
		}
	}

	// The parse-error path wraps the spec parse failure itself, so a
	// caller can still see where in the file the grammar broke.
	_, err := LoadSpec(broken, os.ReadFile)
	if err == nil || !strings.Contains(err.Error(), "spec at byte") {
		t.Errorf("file parse error %q does not wrap the parser position", err)
	}
}
