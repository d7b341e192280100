package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"

	"repro/internal/api"
	"repro/internal/player"
	"repro/internal/serve"
)

// gate is the correctness check. Cheap checks run inline on every
// response; the costly ones (in-process renders, stream/batch parity,
// history reads) run after the timed phases. Every mismatch counts as
// a failed request.
type gate struct {
	mu      sync.Mutex
	warm    map[int][]byte // first warm body per cache key
	modules map[int][]byte // first body per module pattern
	// The first cold batch and the first stream, kept for the
	// after-run checks.
	coldReq, coldResp []byte
	streamReq         []byte
	streamFrames      [][]byte
}

func newGate() *gate { return &gate{warm: map[int][]byte{}, modules: map[int][]byte{}} }

// checkWarm: a warm response is a 200 cache hit, byte-identical to
// every other warm response for the same key.
func (g *gate) checkWarm(key int, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("warm: status %d", r.status)
	}
	if r.cache != "hit" {
		return fmt.Errorf("warm: X-Cache %q, want hit", r.cache)
	}
	return g.sameAsFirst(g.warm, key, r.body)
}

// recomputed checks a lesson entry that was evicted and computed
// again against the key's reference, apart from timings, and clears
// the reference so the next hit sets it anew.
func (g *gate) recomputed(key int, body []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	ref, ok := g.warm[key]
	delete(g.warm, key)
	if !ok {
		return nil
	}
	return sameGenerate(body, ref)
}

// checkModule: a figure-pattern render is deterministic, so every
// response for one pattern is byte-identical.
func (g *gate) checkModule(index int, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("module: status %d", r.status)
	}
	return g.sameAsFirst(g.modules, index, r.body)
}

func (g *gate) sameAsFirst(seen map[int][]byte, key int, body []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	ref, ok := seen[key]
	if !ok {
		seen[key] = body
		return nil
	}
	if !bytes.Equal(ref, body) {
		return fmt.Errorf("body for key %d differs from its first response (%d vs %d bytes)", key, len(body), len(ref))
	}
	return nil
}

// checkCold: a unique-seed batch generate is a 200 cache miss.
func (g *gate) checkCold(req []byte, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("cold: status %d", r.status)
	}
	if r.cache != "miss" {
		return fmt.Errorf("cold: X-Cache %q, want miss", r.cache)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.coldReq == nil {
		g.coldReq, g.coldResp = req, r.body
	}
	return nil
}

// checkStream: a stream is a 200 that opens with meta, carries the
// announced number of windows and closes with a summary.
func (g *gate) checkStream(req []byte, sr streamReply) error {
	if sr.status != http.StatusOK {
		return fmt.Errorf("stream: status %d", sr.status)
	}
	if err := wellFormedStream(sr.frames); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.streamReq == nil {
		g.streamReq, g.streamFrames = req, sr.frames
	}
	return nil
}

func wellFormedStream(frames [][]byte) error {
	if len(frames) < 2 {
		return fmt.Errorf("stream: %d frames", len(frames))
	}
	var meta, last api.StreamFrame
	if err := json.Unmarshal(frames[0], &meta); err != nil || meta.Type != api.FrameMeta || meta.Meta == nil {
		return fmt.Errorf("stream: first frame is not meta (%v)", err)
	}
	if err := json.Unmarshal(frames[len(frames)-1], &last); err != nil || last.Type != api.FrameSummary {
		return fmt.Errorf("stream: last frame is not a summary (%v)", err)
	}
	if got := len(frames) - 2; got != meta.Meta.Windows {
		return fmt.Errorf("stream: %d window frames, meta announced %d", got, meta.Meta.Windows)
	}
	return nil
}

// sameGenerate compares two generate bodies with their timings
// zeroed: wall-clock timings are the one field two correct renders of
// the same request do not share.
func sameGenerate(got, want []byte) error {
	g, err := withoutTimings(got)
	if err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	w, err := withoutTimings(want)
	if err != nil {
		return fmt.Errorf("decode reference: %w", err)
	}
	if !bytes.Equal(g, w) {
		return errors.New("generate body differs from the reference render")
	}
	return nil
}

// withoutTimings re-encodes a JSON object without its "timings" key,
// keeping every number's digits as sent.
func withoutTimings(body []byte) ([]byte, error) {
	var m map[string]any
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, errors.New("trailing data after the JSON object")
	}
	delete(m, "timings")
	return json.Marshal(m)
}

// streamMatchesBatch checks a stream's window frames and summary
// aggregate against the batch response for the same request.
func streamMatchesBatch(frames [][]byte, batch []byte) error {
	var b struct {
		Windows   []json.RawMessage `json:"windows"`
		Aggregate json.RawMessage   `json:"aggregate"`
	}
	if err := json.Unmarshal(batch, &b); err != nil {
		return fmt.Errorf("decode batch: %w", err)
	}
	if err := wellFormedStream(frames); err != nil {
		return err
	}
	windows := frames[1 : len(frames)-1]
	if len(windows) != len(b.Windows) {
		return fmt.Errorf("stream has %d windows, batch %d", len(windows), len(b.Windows))
	}
	for i, f := range windows {
		var w struct {
			Type   string          `json:"type"`
			Window json.RawMessage `json:"window"`
		}
		if err := json.Unmarshal(f, &w); err != nil {
			return fmt.Errorf("decode window frame %d: %w", i, err)
		}
		if w.Type != api.FrameWindow {
			return fmt.Errorf("frame %d has type %q, want %s", i+1, w.Type, api.FrameWindow)
		}
		if !sameJSON(w.Window, b.Windows[i]) {
			return fmt.Errorf("stream window %d differs from batch window %d", i, i)
		}
	}
	var s struct {
		Summary struct {
			Aggregate json.RawMessage `json:"aggregate"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(frames[len(frames)-1], &s); err != nil {
		return fmt.Errorf("decode summary: %w", err)
	}
	if !sameJSON(s.Summary.Aggregate, b.Aggregate) {
		return errors.New("stream summary aggregate differs from batch aggregate")
	}
	return nil
}

// sameJSON compares two JSON texts ignoring insignificant whitespace
// (batch bodies are indented, stream frames compact).
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// reference is an in-process render of the same service twserve
// runs: api.New with a player engine over a fresh DirStore, behind
// serve.NewMux.
type reference struct{ h http.Handler }

func newReference(storeDir string) (*reference, error) {
	ds, err := player.NewDirStore(storeDir)
	if err != nil {
		return nil, err
	}
	return &reference{h: serve.NewMux(api.New(api.WithPlayers(player.NewEngine(ds))))}, nil
}

func (r *reference) do(method, path string, body []byte) reply {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	r.h.ServeHTTP(w, req)
	return reply{status: w.Code, cache: w.Header().Get("X-Cache"), body: w.Body.Bytes()}
}

// verify runs the after-run checks and returns how many it made and
// what failed:
//   - the first cold response equals an in-process render;
//   - each warm key's body equals an in-process cache hit, and each
//     module body an in-process render (through the proxy on
//     proxied, so proxied bodies equal direct ones);
//   - the first player's steps replay byte for byte in-process;
//   - the first stream's frames equal its batch render's windows;
//   - every player's history holds exactly its submits.
func (g *gate) verify(ctx context.Context, base string, in *inputs, pool *playerPool, storeDir string) (int, []error) {
	c := newClient(base, 1)
	defer c.close()
	ref, err := newReference(storeDir)
	if err != nil {
		return 1, []error{err}
	}
	checks := 0
	var fails []error
	check := func(what string, err error) {
		checks++
		if err != nil {
			fails = append(fails, fmt.Errorf("%s: %w", what, err))
		}
	}

	if g.coldReq == nil {
		check("cold reference", errors.New("no cold response to compare"))
	} else {
		r := ref.do(http.MethodPost, "/v1/generate", g.coldReq)
		check("cold vs in-process", sameGenerate(g.coldResp, r.body))
	}
	for _, w := range in.warm {
		ref.do(http.MethodPost, "/v1/generate", w.body) // compute
		r := ref.do(http.MethodPost, "/v1/generate", w.body)
		body, ok := g.warm[w.key]
		if !ok {
			continue // key never drawn in a short run
		}
		check(fmt.Sprintf("warm key %d vs in-process hit", w.key), sameGenerate(body, r.body))
	}
	for i, m := range in.modules {
		body, ok := g.modules[i]
		if !ok {
			continue
		}
		r := ref.do(http.MethodPost, "/v1/module", m)
		check("module "+modulePatterns[i]+" vs in-process", sameBytes(body, r.body))
	}
	steps := pool.replayLog()
	if steps == nil {
		check("player replay", errors.New("the first player's script was aborted"))
	}
	for _, s := range steps {
		r := ref.do(s.method, s.path, s.body)
		check("player replay "+stepPath(s.step), sameBytes(s.resp, r.body))
	}

	if g.streamReq == nil {
		check("stream parity", errors.New("no stream to compare"))
	} else {
		r, err := c.do(ctx, http.MethodPost, "/v1/generate", g.streamReq)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("status %d", r.status)
		}
		if err == nil {
			err = streamMatchesBatch(g.streamFrames, r.body)
		}
		check("stream vs batch", err)
	}

	for _, p := range pool.everyPlayer() {
		r, err := c.do(ctx, http.MethodGet, "/v1/player/"+p.id, nil)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("status %d", r.status)
		}
		if err == nil {
			var v api.PlayerResult
			if err = json.Unmarshal(r.body, &v); err == nil && v.Answered != p.submits {
				err = fmt.Errorf("history holds %d answers, %d submitted", v.Answered, p.submits)
			}
		}
		check("player "+p.id+" history", err)
	}
	return checks, fails
}

func sameBytes(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("body differs from the reference (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}
