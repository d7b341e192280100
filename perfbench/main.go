// Command perfbench is the repository benchmark: it runs one named
// workload against twserve processes built from the tree under test
// and prints every metric by name and unit, ending with one JSON line:
//
//	perfbench -twserve bin/twserve -work tmp \
//	    --workload proxied --seed 1 --seconds 50 --trace 0
//
// perfbench/run.sh builds both binaries and runs this command from the
// root of a checkout. With --trace 0 the JSON carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of
// trace.go. See README.md for the workloads and what each metric
// should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(mainArgs(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	twserve  string
	work     string
	workload workload
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one named reading in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func mainArgs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bin := fs.String("twserve", "", "twserve binary to launch")
	work := fs.String("work", "", "directory for server logs, player stores and spans")
	name := fs.String("workload", "", "workload: cold or proxied")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 50, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want cold or proxied)\n", *name)
		return 2
	case *bin == "" || *work == "":
		fmt.Fprintln(stderr, "perfbench: -twserve and -work are required (perfbench/run.sh sets both)")
		return 2
	case *seconds <= 0 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, config{twserve: *bin, work: *work, workload: wl, seed: *seed, seconds: *seconds, trace: *trace == 1}, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setupRepeats is how many times a run launches and primes a fresh
// fleet; setup_s is the median, and only the last fleet is measured.
const setupRepeats = 7

// run performs one benchmark run and returns its result line; the
// human-readable report goes to out as it is produced.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	wl := cfg.workload
	total := time.Duration(cfg.seconds * float64(time.Second))
	mixDur := time.Duration(float64(total) * wl.mixShare)
	in := newInputs(cfg.seed, int(mixDur.Seconds()*mixRate))
	dir, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", wl.name, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	probe := &http.Client{Timeout: 5 * time.Second}

	// Set-up: launch and prime a fresh fleet several times; time each.
	var setups []float64
	var fl *fleet
	for i := 0; i < setupRepeats; i++ {
		if fl != nil {
			fl.stop()
		}
		t0 := time.Now()
		fl, err = launchFleet(ctx, probe, cfg.twserve, filepath.Join(dir, fmt.Sprintf("fleet%d", i)), wl.proxied)
		if err != nil {
			return nil, err
		}
		if err := prime(ctx, fl.front, in); err != nil {
			fl.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fl.stop()
	fmt.Fprintf(out, "# %s (seed %d, %.1fs)\n", wl.name, cfg.seed, cfg.seconds)
	fmt.Fprintf(out, "setup      %s s (median of %d launches: %s)\n", f4(median(setups)), len(setups), joinF(setups))

	rec := newRecorder()
	g := newGate()
	pool := newPlayerPool(in)
	pt, err := measure(ctx, fl, in, total-mixDur, pool, g, rec)
	if err != nil {
		return nil, err
	}
	rss, err := fl.peakRSSMB()
	if err != nil {
		return nil, err
	}

	checks, fails := g.verify(ctx, fl.front, in, pool, filepath.Join(dir, "reference-players"))
	attempted, failed := rec.counts()
	attempted += checks
	failed += len(fails)

	mixCPU := ms(pt.mixCPU) / float64(pt.mixReqs)
	computeCPU := ms(pt.computeCPU) / float64(pt.computeReqs)
	cpuPerReq := mixCPU
	if wl.cpuFromCompute {
		cpuPerReq = computeCPU
	}
	health := pt.health
	report(out, rec, health, fails)
	fmt.Fprintf(out, "server cpu %s ms/req in the mix phase (%d req), %s ms/req in the compute phase (%d req); peak rss %s MB\n",
		f4(mixCPU), pt.mixReqs, f4(computeCPU), pt.computeReqs, f4(rss))
	fmt.Fprintf(out, "failed_frac %s ratio (%d of %d)\n", f4(float64(failed)/float64(attempted)), failed, attempted)

	res := &result{
		Correct:   failed == 0 && health.valid(),
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	if !health.valid() {
		fmt.Fprintf(out, "INVALID: the open loop achieved %.1f of %d req/s offered; a backlog grew\n", health.achieved, mixRate)
	}
	if cfg.trace {
		res.Metrics, err = traceRun(ctx, fl, in, rec, health, dir, cfg.seconds, out)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["server_cpu_ms_per_req"] = metric{cpuPerReq, "ms"}
	res.Metrics["server_peak_rss_mb"] = metric{rss, "MB"}
	for _, m := range latencyMetrics {
		xs := rec.samples[m.class]
		if len(xs) == 0 {
			return nil, fmt.Errorf("no %s samples to report %s; run longer", m.class, m.name)
		}
		res.Metrics[m.name] = metric{quantile(xs, m.q), "ms"}
	}
	return res, nil
}

// latencyMetrics are the end-to-end latency readings: a quantile of
// one request class. The only tail is the cold p90: p99 of every class
// and p90 of the sub-millisecond classes moved too much between
// identical runs to bound (the traced run reports them).
var latencyMetrics = []struct {
	name, class string
	q           float64
}{
	{"cold.p50_ms", "cold", 0.5},
	{"cold.p90_ms", "cold", 0.9},
	{"stream.first_window_p50_ms", "stream.first_window", 0.5},
	{"stream.p50_ms", "stream", 0.5},
	{"warm.p50_ms", "warm", 0.5},
	{"module.p50_ms", "module", 0.5},
	{"player.write.p50_ms", "player.submit", 0.5},
	{"player.read.p50_ms", "player.progress", 0.5},
}

// prime fills the fleet's caches: every lesson request once (the
// respelled spec lands as a hit on its twin) and every module once.
func prime(ctx context.Context, base string, in *inputs) error {
	c := newClient(base, 1)
	defer c.close()
	for _, w := range in.warm {
		if err := expectOK(c.do(ctx, http.MethodPost, "/v1/generate", w.body)); err != nil {
			return fmt.Errorf("prime lesson: %w", err)
		}
	}
	for _, m := range in.modules {
		if err := expectOK(c.do(ctx, http.MethodPost, "/v1/module", m)); err != nil {
			return fmt.Errorf("prime module: %w", err)
		}
	}
	return nil
}

func expectOK(r reply, err error) error {
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, r.body)
	}
	return nil
}

// report prints every class's sample count and percentiles, the
// generator's health and any failures.
func report(out io.Writer, rec *recorder, h mixHealth, fails []error) {
	classes := make([]string, 0, len(rec.samples))
	for c := range rec.samples {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(out, "%-22s %6s %10s %10s %10s\n", "class", "n", "p50_ms", "p90_ms", "p99_ms")
	for _, c := range classes {
		xs := rec.samples[c]
		fmt.Fprintf(out, "%-22s %6d %10s %10s %10s\n", c, len(xs), f4(quantile(xs, 0.5)), f4(quantile(xs, 0.9)), f4(quantile(xs, 0.99)))
	}
	if len(rec.late) > 0 {
		fmt.Fprintf(out, "loadgen    late p50 %s ms, p99 %s ms; achieved %.2f of %d req/s offered\n",
			f4(quantile(rec.late, 0.5)), f4(quantile(rec.late, 0.99)), h.achieved, mixRate)
	}
	for _, p := range rec.problems {
		fmt.Fprintf(out, "FAILED %s\n", p)
	}
	for _, f := range fails {
		fmt.Fprintf(out, "FAILED gate: %v\n", f)
	}
}

func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

func joinF(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += f4(x)
	}
	return s
}
