package netsim

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The streaming benchmarks back the PR's two quantitative claims
// (CI snapshots them into BENCH_PR6.json):
//
//   - time-to-first-window: the streamed path delivers window 0 long
//     before the batch path can (batch must generate and sort the
//     whole trace first);
//   - bounded memory: the streamed path's peak heap stays flat with
//     run length because windows seal and release as the run
//     progresses, while the batch path holds the full trace.
//
// The workload is deliberately the serve-smoke shape: a large axis,
// a long run, and a high event rate (duration 600 × rate 2000 =
// 1.2e6 events across 600 one-second chunks, 60 ten-second windows).

const benchWindow = 10.0

func benchConfig() (*Network, Params) {
	return ScaledNetwork(300), Params{Duration: 600, Rate: 2000}
}

var errFirstWindow = errors.New("first window delivered")

// BenchmarkStreamFirstWindow measures time-to-first-window on the
// streamed path: the run is aborted as soon as window 0 seals.
func BenchmarkStreamFirstWindow(b *testing.B) {
	s, _ := LookupScenario("background")
	net, p := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		_, _, err := StreamCSRArena(context.Background(), nil, s, net, 42, 0, p, benchWindow, 0,
			func(int, SparseWindow) error { return errFirstWindow })
		if !errors.Is(err, errFirstWindow) {
			b.Fatalf("StreamCSRArena: %v", err)
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds()), "first-window-ns")
	}
}

// BenchmarkBatchFirstWindow is the baseline: the batch path cannot
// surface window 0 before generating the full trace and folding the
// whole spatial-temporal view.
func BenchmarkBatchFirstWindow(b *testing.B) {
	s, _ := LookupScenario("background")
	net, p := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		trace, err := GenerateTraceArena(context.Background(), nil, s, net, 42, 0, p)
		if err != nil {
			b.Fatalf("GenerateTraceArena: %v", err)
		}
		wins, err := trace.WindowsCSRArena(context.Background(), nil, net, benchWindow, p.withDefaults().Duration)
		if err != nil {
			b.Fatalf("WindowsCSRArena: %v", err)
		}
		if wins[0].Matrix == nil {
			b.Fatal("nil first window")
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds()), "first-window-ns")
	}
}

// peakHeap runs fn while sampling the heap every few milliseconds and
// returns the peak HeapAlloc observed, minus a post-GC baseline.
func peakHeap(fn func()) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	var peak atomic.Uint64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			for {
				old := peak.Load()
				if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
					break
				}
			}
			select {
			case <-done:
				return
			case <-ticker.C:
			}
		}
	}()
	fn()
	close(done)
	<-sampled
	p := peak.Load()
	if p < baseline {
		return 0
	}
	return float64(p - baseline)
}

// BenchmarkStreamPeakMemory runs the full streamed fold, discarding
// each window as it seals, and reports the sampled peak heap growth.
func BenchmarkStreamPeakMemory(b *testing.B) {
	s, _ := LookupScenario("background")
	net, p := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peak := peakHeap(func() {
			_, _, err := StreamCSRArena(context.Background(), nil, s, net, 42, 0, p, benchWindow, 0,
				func(int, SparseWindow) error { return nil })
			if err != nil {
				b.Fatalf("StreamCSRArena: %v", err)
			}
		})
		b.ReportMetric(peak, "peak-heap-bytes")
	}
}

// BenchmarkBatchPeakMemory is the baseline: the batch path holds the
// complete trace plus every window at once.
func BenchmarkBatchPeakMemory(b *testing.B) {
	s, _ := LookupScenario("background")
	net, p := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peak := peakHeap(func() {
			trace, err := GenerateTraceArena(context.Background(), nil, s, net, 42, 0, p)
			if err != nil {
				b.Fatalf("GenerateTraceArena: %v", err)
			}
			wins, err := trace.WindowsCSRArena(context.Background(), nil, net, benchWindow, p.withDefaults().Duration)
			if err != nil {
				b.Fatalf("WindowsCSRArena: %v", err)
			}
			if len(wins) == 0 {
				b.Fatal("no windows")
			}
		})
		b.ReportMetric(peak, "peak-heap-bytes")
	}
}
