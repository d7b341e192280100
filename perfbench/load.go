package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// recorder collects per-class latencies (ms), the open loop's
// lateness, and the attempted/failed tallies of one run.
type recorder struct {
	mu        sync.Mutex
	samples   map[string][]float64
	late      []float64
	attempted int
	failed    int
	problems  []string
}

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

func (r *recorder) ok(class string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.samples[class] = append(r.samples[class], ms(d))
}

// sample adds a latency that is a second reading of a request already
// counted (the first-window time of a stream).
func (r *recorder) sample(class string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[class] = append(r.samples[class], ms(d))
}

func (r *recorder) fail(class string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, class+": "+err.Error())
	}
}

func (r *recorder) lateness(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.late = append(r.late, ms(d))
}

func (r *recorder) counts() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempted, r.failed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs must be non-empty.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mixHealth reports how well the open loop kept its schedule.
type mixHealth struct {
	offered, achieved float64 // requests per second
}

// valid reports whether the generator kept up with its schedule. A
// shortfall beyond 2% means a backlog grew during the run, so the
// latencies measure the queue, not the server.
func (h mixHealth) valid() bool { return h.achieved >= 0.98*h.offered }

// runMix drives one block of the mix phase: an open loop over
// mixConns connections, one slot every 1/mixRate s. A free connection
// claims the next slot and sends it at its due time; every latency is
// measured from the due time, so a stall also charges the requests it
// delayed.
func runMix(ctx context.Context, c *client, in *inputs, slots []slot, pool *playerPool, g *gate, rec *recorder) mixHealth {
	n := len(slots)
	interval := float64(time.Second) / mixRate
	start := time.Now().Add(5 * time.Millisecond)
	var next, lastSend atomic.Int64
	var wg sync.WaitGroup
	wg.Add(mixConns)
	for w := 0; w < mixConns; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				sleepUntil(due)
				sent := time.Now()
				rec.lateness(sent.Sub(due))
				for at := int64(sent.Sub(start)); ; {
					old := lastSend.Load()
					if at <= old || lastSend.CompareAndSwap(old, at) {
						break
					}
				}
				runSlot(ctx, c, in, slots[i], due, pool, g, rec)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Duration(lastSend.Load()) + time.Duration(interval)
	return mixHealth{offered: mixRate, achieved: float64(n) / elapsed.Seconds()}
}

// sleepUntil blocks until t. It sleeps in nanosleep(2) rather than
// time.Sleep: the runtime's timers wake up to a millisecond late,
// which would add about half a millisecond of generator lateness to
// every sub-millisecond request.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// runSlot sends one mix-phase request and records it.
func runSlot(ctx context.Context, c *client, in *inputs, s slot, due time.Time, pool *playerPool, g *gate, rec *recorder) {
	switch s.class {
	case 'w':
		w := in.warm[s.index]
		r, err := c.do(ctx, http.MethodPost, "/v1/generate", w.body)
		lat := time.Since(due)
		if err == nil {
			err = g.checkWarm(w.key, r)
		}
		record(rec, "warm", lat, err)
	case 'm':
		r, err := c.do(ctx, http.MethodPost, "/v1/module", in.modules[s.index])
		lat := time.Since(due)
		if err == nil {
			err = g.checkModule(s.index, r)
		}
		record(rec, "module", lat, err)
	case 'p':
		p, st := pool.take()
		r, err := c.do(ctx, st.method, st.path, st.body)
		lat := time.Since(due)
		ok := err == nil && r.status == http.StatusOK
		if err == nil && !ok {
			err = fmt.Errorf("%s: status %d", stepPath(st), r.status)
		}
		if perr := pool.done(p, st, r.body, ok); err == nil {
			err = perr
		}
		record(rec, "player."+st.kind, lat, err)
	}
}

func record(rec *recorder, class string, lat time.Duration, err error) {
	if err != nil {
		rec.fail(class, err)
		return
	}
	rec.ok(class, lat)
}

// computeCycle is the compute phase's request pattern: three batch
// generates, then one stream.
const computeCycle = 4

// runCompute drives one block of the compute phase: one client in a
// closed loop sending unique-seed cold generates until the block ends.
// k numbers the run's cold requests; the next number is returned. The
// first block always completes one full cycle.
func runCompute(ctx context.Context, c *client, in *inputs, g *gate, rec *recorder, dur time.Duration, k int) int {
	deadline := time.Now().Add(dur)
	for ; ctx.Err() == nil && (k < computeCycle || time.Now().Before(deadline)); k++ {
		body := mustJSON(loadShape(coldSpec, in.coldSeed(k)))
		if k%computeCycle == computeCycle-1 {
			sr, err := c.stream(ctx, body)
			if err == nil {
				err = g.checkStream(body, sr)
			}
			if err == nil {
				rec.sample("stream.first_window", sr.firstWindow)
			}
			record(rec, "stream", sr.total, err)
			continue
		}
		t0 := time.Now()
		r, err := c.do(ctx, http.MethodPost, "/v1/generate", body)
		lat := time.Since(t0)
		if err == nil {
			err = g.checkCold(body, r)
		}
		record(rec, "cold", lat, err)
	}
	return k
}

// blocks is how many mix/compute block pairs a run alternates. The
// machine's speed drifts on a scale of tens of seconds, so spreading
// both phases over the whole run keeps one slow stretch from landing
// on one phase only.
const blocks = 6

// reprime restores, untimed, the lesson entries that the last compute
// block's cold results evicted from the result cache. A recomputed
// entry must equal its earlier render apart from timings; its next
// hit becomes the key's new byte-for-byte reference.
func reprime(ctx context.Context, c *client, in *inputs, g *gate, rec *recorder) error {
	for _, w := range in.warm {
		r, err := c.do(ctx, http.MethodPost, "/v1/generate", w.body)
		if err := expectOK(r, err); err != nil {
			return fmt.Errorf("re-prime lesson: %w", err)
		}
		if r.cache != "miss" {
			continue
		}
		// Compare hit with hit: the body carries the cache marker.
		r, err = c.do(ctx, http.MethodPost, "/v1/generate", w.body)
		if err := expectOK(r, err); err != nil {
			return fmt.Errorf("re-prime lesson: %w", err)
		}
		if err := g.recomputed(w.key, r.body); err != nil {
			rec.fail("warm.recompute", err)
		}
	}
	return nil
}

// phaseTotals is what the two phases of a run cost the servers.
type phaseTotals struct {
	mixCPU, computeCPU   time.Duration
	mixReqs, computeReqs int
	health               mixHealth // the least punctual mix block
}

// measure alternates mix and compute blocks for the run's length.
func measure(ctx context.Context, fl *fleet, in *inputs, computeDur time.Duration, pool *playerPool, g *gate, rec *recorder) (phaseTotals, error) {
	mixClient := newClient(fl.front, mixConns)
	defer mixClient.close()
	coldClient := newClient(fl.front, 1)
	defer coldClient.close()
	var t phaseTotals
	mark := func() (time.Duration, int, error) {
		cpu, err := fl.cpuTime()
		n, _ := rec.counts()
		return cpu, n, err
	}
	k := 0
	for b := 0; b < blocks; b++ {
		if b > 0 {
			if err := reprime(ctx, coldClient, in, g, rec); err != nil {
				return t, err
			}
		}
		cpu0, n0, err := mark()
		if err != nil {
			return t, err
		}
		h := runMix(ctx, mixClient, in, in.slots[b*len(in.slots)/blocks:(b+1)*len(in.slots)/blocks], pool, g, rec)
		cpu1, n1, err := mark()
		if err != nil {
			return t, err
		}
		k = runCompute(ctx, coldClient, in, g, rec, computeDur/blocks, k)
		cpu2, n2, err := mark()
		if err != nil {
			return t, err
		}
		t.mixCPU += cpu1 - cpu0
		t.computeCPU += cpu2 - cpu1
		t.mixReqs += n1 - n0
		t.computeReqs += n2 - n1
		if b == 0 || h.achieved < t.health.achieved {
			t.health = h
		}
	}
	return t, ctx.Err()
}
