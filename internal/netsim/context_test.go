package netsim

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// crawlScenario is a deliberately slow, many-chunk scenario for
// cancellation tests: each chunk sleeps, so a full run takes far
// longer than the test's cancellation point. It is never registered —
// the catalog (and the parity suites iterating it) must not see it.
type crawlScenario struct {
	chunks int
	delay  time.Duration
}

func (c crawlScenario) Name() string        { return "crawl-test" }
func (c crawlScenario) Description() string { return "slow scenario for cancellation tests" }
func (c crawlScenario) Shape() string       { return "one cell, slowly" }

func (c crawlScenario) Chunks(net *Network, p Params) int { return c.chunks }

func (c crawlScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	time.Sleep(c.delay)
	emit(Event{Time: 0, Src: "WS1", Dst: "SRV1", Packets: 1})
	return nil
}

func TestGenerateContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net := StandardNetwork()
	if _, err := GenerateTraceArena(ctx, nil, crawlScenario{chunks: 8}, net, 1, 2, Params{}); !errors.Is(err, context.Canceled) {
		t.Errorf("GenerateTraceArena on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, _, err := GenerateCSRArena(ctx, nil, crawlScenario{chunks: 8}, net, 1, 2, Params{}); !errors.Is(err, context.Canceled) {
		t.Errorf("GenerateCSRArena on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestGenerateContextCancelMidRun pins the tentpole claim: a long
// generation aborts promptly when its context is cancelled, instead
// of finishing all chunks.
func TestGenerateContextCancelMidRun(t *testing.T) {
	// 400 chunks × 5ms on 2 workers ≈ 1s uncancelled; the context
	// dies after ~30ms.
	s := crawlScenario{chunks: 400, delay: 5 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := GenerateTraceArena(ctx, nil, s, StandardNetwork(), 1, 2, Params{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("cancelled run still took %v; cancellation is not reaching the worker loop", elapsed)
	}
}

// TestGenerateContextBackgroundUnchanged: the context-free entry
// points still generate the exact traffic they always did (they are
// the Background delegates).
func TestGenerateContextBackgroundUnchanged(t *testing.T) {
	s, ok := LookupScenario("scan")
	if !ok {
		t.Fatal("catalog missing scan")
	}
	net := StandardNetwork()
	want, err := GenerateTraceArena(context.Background(), nil, s, net, 3, 2, Params{Duration: 6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := GenerateTraceArena(context.Background(), nil, s, net, 3, 2, Params{Duration: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("ctx variant generated %d events, plain %d", len(got), len(want))
	}
}

func TestWindowsCSRContextCancelled(t *testing.T) {
	s, _ := LookupScenario("background")
	net := StandardNetwork()
	trace, err := GenerateTraceArena(context.Background(), nil, s, net, 1, 2, Params{Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := trace.WindowsCSRArena(ctx, nil, net, 2, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("WindowsCSRArena on cancelled ctx: err = %v, want context.Canceled", err)
	}
	// And a live context still windows normally.
	windows, err := trace.WindowsCSRArena(context.Background(), nil, net, 2, 0)
	if err != nil || len(windows) == 0 {
		t.Errorf("live-context windowing failed: %v (%d windows)", err, len(windows))
	}
}
