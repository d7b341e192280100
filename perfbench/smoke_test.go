package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSmokeAllWorkloads builds twserve from the tree, runs every
// workload for a few seconds untraced and one traced, and checks each
// result line: correct, nothing failed, and exactly the metrics
// BENCHMARK.json declares for that mode.
func TestSmokeAllWorkloads(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "twserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/twserve").CombinedOutput(); err != nil {
		t.Fatalf("build twserve: %v\n%s", err, out)
	}
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	runs := []struct {
		workload, trace string
		want            []string
	}{
		{"cold", "0", names(spec.EndToEnd)},
		{"proxied", "0", names(spec.EndToEnd)},
		{"proxied", "1", names(spec.PerLayer)},
	}
	for _, r := range runs {
		t.Run(r.workload+"/trace"+r.trace, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-twserve", bin, "-work", t.TempDir(),
				"--workload", r.workload, "--seed", "3", "--seconds", "4", "--trace", r.trace}
			if code := mainArgs(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s\n%s", code, stderr.String(), stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not a result: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(r.want, "\n") {
				t.Fatalf("metrics\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(r.want, "\n"))
			}
		})
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-twserve", "x", "-work", "y", "--workload", "nope"},
		{"--workload", "cold"},
		{"-twserve", "x", "-work", "y", "--workload", "cold", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := mainArgs(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
