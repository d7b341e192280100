package netsim

import (
	"context"
	"sort"

	"repro/internal/matrix"
)

// Event is one observed flow record: src sent packets to dst at a
// point in time. Events are the simulated counterpart of the
// network sensor feeds the paper's GraphBLAS references aggregate
// into hypersparse traffic matrices.
type Event struct {
	// Time is seconds since scenario start.
	Time float64
	// Src and Dst are host names.
	Src, Dst string
	// Packets is the packet count of the flow.
	Packets int
}

// Trace is a time-ordered event sequence.
type Trace []Event

// Sort orders the trace by time (stable on equal stamps, preserving
// emission order).
func (t Trace) Sort() {
	sort.SliceStable(t, func(i, j int) bool { return t[i].Time < t[j].Time })
}

// Duration returns the maximum event timestamp, or 0 for an empty
// trace. The maximum — not the last element's stamp — so the value
// is correct on a freshly generated, not-yet-sorted trace too.
func (t Trace) Duration() float64 {
	max := 0.0
	for _, e := range t {
		if e.Time > max {
			max = e.Time
		}
	}
	return max
}

// TotalPackets sums all packets in the trace.
func (t Trace) TotalPackets() int {
	total := 0
	for _, e := range t {
		total += e.Packets
	}
	return total
}

// Between returns the sub-trace with t0 ≤ Time < t1, preserving
// order.
func (t Trace) Between(t0, t1 float64) Trace {
	var out Trace
	for _, e := range t {
		if e.Time >= t0 && e.Time < t1 {
			out = append(out, e)
		}
	}
	return out
}

// Assoc aggregates the whole trace into an associative array keyed
// by host names: the D4M view of the traffic.
func (t Trace) Assoc() *matrix.Assoc {
	a := matrix.NewAssoc()
	for _, e := range t {
		a.Add(e.Src, e.Dst, e.Packets)
	}
	return a
}

// Matrix aggregates the whole trace onto a network's axis. Events
// naming unknown hosts are counted as dropped.
func (t Trace) Matrix(net *Network) (*matrix.Dense, int) {
	return t.Assoc().ToDense(net.Labels())
}

// SparseMatrixArena aggregates the whole trace onto a network's axis
// as a CSR, never materializing the n² cells: one linear fold into a
// COO followed by compaction. Events naming unknown hosts are counted
// in the returned dropped packet total, mirroring Matrix. The COO
// accumulator is pre-sized to the trace length, pooled in the arena
// (nil allocates fresh — identical output either way), and released
// before returning; the CSR's arrays are freshly allocated and the
// caller's forever.
func (t Trace) SparseMatrixArena(a *Arena, net *Network) (*matrix.CSR, int) {
	n := net.Len()
	hint := divHint(len(t), 1)
	c := matrix.NewCOOIn(a.Matrix(), n, n, hint)
	dropped := 0
	for _, e := range t {
		i, iok := net.Index(e.Src)
		j, jok := net.Index(e.Dst)
		if !iok || !jok {
			dropped += e.Packets
			continue
		}
		c.Add(i, j, e.Packets)
	}
	csr := c.ToCSR()
	c.Release()
	return csr, dropped
}

// Window is one aggregation interval with its traffic matrix.
type Window struct {
	// Start and End bound the interval [Start,End); the final window
	// of a run additionally covers an event at exactly the horizon.
	Start, End float64
	// Matrix is the aggregated traffic.
	Matrix *matrix.Dense
	// Events is the number of events in the window, including events
	// naming hosts outside the network axis.
	Events int
	// Dropped is the packet volume of the window's events that name
	// hosts outside the network axis and so appear nowhere in Matrix.
	Dropped int
}

// Windows splits the trace into ⌈horizon/windowLen⌉ fixed-length
// aggregation windows starting at 0 — the streaming-analysis view
// ("spatial temporal analysis" in the paper's references). A horizon
// of 0 uses the trace duration rounded up to a whole window. An
// event at exactly the horizon lands in the final window, so a trace
// whose last event falls on a window boundary loses nothing; only
// events beyond the last window's end are excluded.
//
// Windows is a thin dense adapter over WindowsCSRArena: the trace is
// folded sparsely in a single pass and each window densifies only at
// the end, so the two views are cell-for-cell identical by
// construction.
func (t Trace) Windows(net *Network, windowLen, horizon float64) ([]Window, error) {
	sparse, err := t.WindowsCSRArena(context.Background(), nil, net, windowLen, horizon)
	if err != nil {
		return nil, err
	}
	out := make([]Window, len(sparse))
	for i, w := range sparse {
		out[i] = Window{
			Start:   w.Start,
			End:     w.End,
			Matrix:  w.Matrix.ToDense(),
			Events:  w.Events,
			Dropped: w.Dropped,
		}
	}
	return out, nil
}
