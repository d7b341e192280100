package api

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"repro/internal/netsim"
)

// The streaming variant of Generate. Both run the same cold path
// (Service.cold): batch Generate collects every window's readings
// and returns them with the aggregate once the run is done;
// GenerateStream emits NDJSON-able frames as the run progresses, one
// meta frame up front, one window frame per sealed aggregation
// window (bit-identical to the batch WindowResult, because both
// collect the same windowResult values from the same engine), and
// one summary frame with the whole-run aggregate analysis at the
// end.
//
// Streaming requests deliberately bypass the result cache and the
// flight group: a stream's value is its timing, its windows leave
// the process as they are produced, and a consumer hangup mid-run
// must never insert a partial result — so nothing of a stream is
// ever cached and no two streams coalesce. A cancelled stream
// followed by a batch request for the same key recomputes from cold
// (pinned by TestStreamThenBatchRecomputes).

// StreamMeta is the stream's opening frame payload: everything about
// the run that is known before generation starts, mirroring the
// header fields of GenerateResult.
type StreamMeta struct {
	Version  string  `json:"version"`
	Spec     string  `json:"spec"`
	Scenario string  `json:"scenario"`
	Shape    string  `json:"shape"`
	Hosts    int     `json:"hosts"`
	Seed     int64   `json:"seed"`
	Workers  int     `json:"workers"`
	Duration float64 `json:"duration"`
	// Window is the aggregation window length in seconds; Windows is
	// how many window frames the stream will carry if it runs to
	// completion.
	Window  float64  `json:"window"`
	Windows int      `json:"windows"`
	Labels  []string `json:"labels"`
	// Schedule and ComposedOf mirror GenerateResult.
	Schedule   []Phase  `json:"schedule,omitempty"`
	ComposedOf []string `json:"composed_of,omitempty"`
}

// StreamSummary is the stream's closing frame payload: the whole-run
// tallies and the aggregate sparse-path analysis, exactly the values
// the batch result carries.
type StreamSummary struct {
	Events    int       `json:"events"`
	Packets   int       `json:"packets"`
	Aggregate Aggregate `json:"aggregate"`
	Timings   Timings   `json:"timings"`
}

// Frame types. A well-formed stream is meta, then zero or more
// window frames in index order, then exactly one summary — or an
// error frame at the point of failure instead.
const (
	FrameMeta    = "meta"
	FrameWindow  = "window"
	FrameSummary = "summary"
	FrameError   = "error"
)

// StreamFrame is one NDJSON line of a generate stream: a type tag
// plus exactly the payload field matching the type.
type StreamFrame struct {
	Type    string         `json:"type"`
	Meta    *StreamMeta    `json:"meta,omitempty"`
	Window  *WindowResult  `json:"window,omitempty"`
	Summary *StreamSummary `json:"summary,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// validate rejects frames whose payload does not match their type —
// the shared gate that keeps encoder and decoder honest about the
// wire contract.
func (f StreamFrame) validate() error {
	var want string
	switch f.Type {
	case FrameMeta:
		if f.Meta == nil {
			return fmt.Errorf("api: meta frame without meta payload")
		}
		want = FrameMeta
	case FrameWindow:
		if f.Window == nil {
			return fmt.Errorf("api: window frame without window payload")
		}
		want = FrameWindow
	case FrameSummary:
		if f.Summary == nil {
			return fmt.Errorf("api: summary frame without summary payload")
		}
		want = FrameSummary
	case FrameError:
		if f.Error == "" {
			return fmt.Errorf("api: error frame without message")
		}
		want = FrameError
	default:
		return fmt.Errorf("api: unknown frame type %q", f.Type)
	}
	if f.Meta != nil && want != FrameMeta {
		return fmt.Errorf("api: %s frame carries a meta payload", f.Type)
	}
	if f.Window != nil && want != FrameWindow {
		return fmt.Errorf("api: %s frame carries a window payload", f.Type)
	}
	if f.Summary != nil && want != FrameSummary {
		return fmt.Errorf("api: %s frame carries a summary payload", f.Type)
	}
	if f.Error != "" && want != FrameError {
		return fmt.Errorf("api: %s frame carries an error message", f.Type)
	}
	return nil
}

// MaxFrameBytes bounds one encoded frame line. Window frames with
// dense cells on a large axis are the biggest legitimate frames;
// the cap matches twserve's request body bound.
const MaxFrameBytes = 8 << 20

// EncodeFrame writes one frame as a single NDJSON line through a
// pooled buffer: the line (json.Encoder appends the newline itself)
// is validated, bounded, and handed to the writer in one Write, and
// the buffer recycles for the next frame instead of becoming
// per-frame garbage.
func EncodeFrame(w io.Writer, f StreamFrame) error {
	if err := f.validate(); err != nil {
		return err
	}
	we := getWireEncoder()
	defer putWireEncoder(we)
	we.enc.SetIndent("", "")
	if err := we.enc.Encode(f); err != nil {
		return err
	}
	if we.buf.Len() > MaxFrameBytes {
		return fmt.Errorf("api: frame of %d bytes exceeds the %d limit", we.buf.Len(), MaxFrameBytes)
	}
	_, err := w.Write(we.buf.Bytes())
	return err
}

// FrameDecoder reads a generate stream frame by frame: the consumer
// half of the NDJSON contract, used by twsim's stream mode and the
// tests, and fuzzed against malformed input (FuzzFrameCodec).
type FrameDecoder struct {
	sc *bufio.Scanner
}

// NewFrameDecoder wraps a stream reader. Lines beyond MaxFrameBytes
// fail decoding rather than growing without bound.
func NewFrameDecoder(r io.Reader) *FrameDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), MaxFrameBytes)
	return &FrameDecoder{sc: sc}
}

// Next returns the next frame, io.EOF at clean end of stream, or a
// descriptive error for malformed input (never a panic). Blank lines
// between frames are tolerated.
func (d *FrameDecoder) Next() (StreamFrame, error) {
	for d.sc.Scan() {
		line := d.sc.Bytes()
		if len(trimSpace(line)) == 0 {
			continue
		}
		var f StreamFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return StreamFrame{}, fmt.Errorf("api: malformed stream frame: %w", err)
		}
		if err := f.validate(); err != nil {
			return StreamFrame{}, err
		}
		return f, nil
	}
	if err := d.sc.Err(); err != nil {
		return StreamFrame{}, err
	}
	return StreamFrame{}, io.EOF
}

// trimSpace is bytes.TrimSpace for the only whitespace NDJSON lines
// can legally carry, avoiding an allocation per frame.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// GenerateStream runs the request as an incremental stream: emit
// receives the meta frame, each window frame the moment the engine
// seals that window, and finally the summary frame. Window must be
// positive — a stream with no windows is just Generate. An emit
// error (typically the consumer hanging up) stops generation at
// chunk granularity and is returned; frames already emitted stand.
// The result cache is bypassed entirely in both directions.
func (svc *Service) GenerateStream(ctx context.Context, req GenerateRequest, emit func(StreamFrame) error) error {
	if err := req.validate(); err != nil {
		return err
	}
	if req.Window <= 0 {
		return fmt.Errorf("%w: streaming requires a positive window, got %g", ErrInvalidRequest, req.Window)
	}
	scn, err := resolveSpec(req.Spec)
	if err != nil {
		return err
	}
	canonical := netsim.SpecString(scn)
	net := netsim.ScaledNetwork(req.Hosts)

	fctx, end := svc.sessions.Begin(ctx, "stream", req.cacheKey(canonical, net.Len()))
	defer end()
	// A consumer that fails mid-stream (hangup, encode error) must
	// stop the generation workers promptly, not just surface an error
	// after they finish the run: cancel the run's context on the first
	// emit failure, and refuse every later frame so nothing is emitted
	// after a failure — the regression the post-first-frame error test
	// pins.
	sctx, cancel := context.WithCancelCause(fctx)
	defer cancel(nil)
	var emitFailed atomic.Bool
	send := func(f StreamFrame) error {
		if emitFailed.Load() {
			return context.Cause(sctx)
		}
		if err := emit(f); err != nil {
			emitFailed.Store(true)
			cancel(err)
			return err
		}
		return nil
	}

	start := func(res *GenerateResult) error {
		nw := int(math.Ceil(res.Duration / req.Window))
		if nw < 1 {
			nw = 1
		}
		return send(StreamFrame{Type: FrameMeta, Meta: &StreamMeta{
			Version: res.Version, Spec: res.Spec, Scenario: res.Scenario, Shape: res.Shape,
			Hosts: res.Hosts, Seed: res.Seed, Workers: res.Workers,
			Duration: res.Duration, Window: req.Window, Windows: nw,
			Labels: res.Labels, Schedule: res.Schedule, ComposedOf: res.ComposedOf,
		}})
	}
	res, err := svc.cold(sctx, scn, canonical, net, req, start, func(wr WindowResult) error {
		if req.IncludeMatrices {
			wr.Cells = wr.Matrix.ToDense().ToRows()
		}
		return send(StreamFrame{Type: FrameWindow, Window: &wr})
	})
	if err != nil {
		// A run stopped by an emit failure reports the consumer's
		// error, not the context.Canceled our own cancel induced —
		// whichever of the two surfaced first from the worker pool.
		if emitFailed.Load() {
			err = context.Cause(sctx)
		}
		return sessionErr(fctx, err)
	}
	summary := &StreamSummary{
		Events: res.Events, Packets: res.Packets, Aggregate: res.Aggregate, Timings: res.Timings,
	}
	return sessionErr(fctx, send(StreamFrame{Type: FrameSummary, Summary: summary}))
}
