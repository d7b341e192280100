package main

import (
	"bytes"
	"net/http"
	"testing"
)

// corrupt returns body with the byte at i replaced: a digit by
// another digit, anything else by 'X' (or 'Y' where it was 'X').
func corrupt(body []byte, i int) []byte {
	out := bytes.Clone(body)
	switch c := out[i]; {
	case c >= '0' && c <= '8':
		out[i] = c + 1
	case c == '9':
		out[i] = '0'
	case c == 'X':
		out[i] = 'Y'
	default:
		out[i] = 'X'
	}
	return out
}

// timingsSpan returns the byte range of the "timings" member of an
// indented generate body: the one part two correct renders differ in.
func timingsSpan(t *testing.T, body []byte) (int, int) {
	t.Helper()
	lo := bytes.Index(body, []byte(`"timings"`))
	if lo < 0 {
		t.Fatal("generate body has no timings")
	}
	hi := lo + bytes.IndexByte(body[lo:], '}')
	return lo, hi + 1
}

func TestGateCatchesOneCorruptedByte(t *testing.T) {
	ref, err := newReference(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := mustJSON(loadShape(coldSpec, 5))
	cold := ref.do(http.MethodPost, "/v1/generate", req)
	warm := ref.do(http.MethodPost, "/v1/generate", req)
	module := ref.do(http.MethodPost, "/v1/module", mustJSON(map[string]string{"pattern": playerPattern}))
	stream := ref.do(http.MethodPost, "/v1/generate/stream", req)
	other, err := newReference(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold2 := other.do(http.MethodPost, "/v1/generate", req)
	for _, r := range []reply{cold, warm, module, stream, cold2} {
		if r.status != http.StatusOK {
			t.Fatalf("reference render: status %d: %s", r.status, r.body)
		}
	}
	var frames [][]byte
	for _, line := range bytes.SplitAfter(stream.body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) > 0 {
			frames = append(frames, line)
		}
	}

	// Untouched responses pass every check.
	if err := sameGenerate(cold2.body, cold.body); err != nil {
		t.Fatalf("two services' renders: %v", err)
	}
	if err := streamMatchesBatch(frames, cold.body); err != nil {
		t.Fatalf("stream vs batch: %v", err)
	}
	g := newGate()
	if err := g.checkWarm(0, warm); err != nil {
		t.Fatal(err)
	}
	if err := g.checkModule(0, module); err != nil {
		t.Fatal(err)
	}

	lo, hi := timingsSpan(t, cold.body)
	for i := range cold.body {
		bad := corrupt(cold.body, i)
		if err := g.checkWarm(0, reply{status: http.StatusOK, cache: "hit", body: bad}); err == nil {
			t.Fatalf("warm identity check missed a corrupted byte at %d", i)
		}
		if i >= lo && i < hi {
			continue // timings are excluded from the reference comparison
		}
		if err := sameGenerate(bad, cold.body); err == nil {
			t.Fatalf("reference comparison missed a corrupted byte at %d (%q)", i, cold.body[max(0, i-20):i+1])
		}
	}
	for i := range module.body {
		if err := g.checkModule(0, reply{status: http.StatusOK, body: corrupt(module.body, i)}); err == nil {
			t.Fatalf("module identity check missed a corrupted byte at %d", i)
		}
	}
	for k := 1; k < len(frames)-1; k++ { // every window frame
		for i := range frames[k] {
			if frames[k][i] == '\n' {
				continue
			}
			bad := append([][]byte(nil), frames...)
			bad[k] = corrupt(frames[k], i)
			if err := streamMatchesBatch(bad, cold.body); err == nil {
				t.Fatalf("stream parity missed a corrupted byte at %d of window frame %d", i, k)
			}
		}
	}

	// Status and cache marker are checked too.
	if err := g.checkWarm(0, reply{status: http.StatusOK, cache: "miss", body: warm.body}); err == nil {
		t.Fatal("warm check accepted X-Cache: miss")
	}
	if err := g.checkCold(req, reply{status: http.StatusInternalServerError, cache: "miss"}); err == nil {
		t.Fatal("cold check accepted a 500")
	}
}

func TestSameGenerateIgnoresOnlyTimings(t *testing.T) {
	a := []byte(`{"events": 3, "timings": {"generate_ns": 10}, "cache_hit": false}`)
	b := []byte(`{"events": 3, "timings": {"generate_ns": 99}, "cache_hit": false}`)
	if err := sameGenerate(a, b); err != nil {
		t.Fatalf("timings-only difference rejected: %v", err)
	}
	c := []byte(`{"events": 3, "timings": {"generate_ns": 10}, "cache_hit": true}`)
	if err := sameGenerate(a, c); err == nil {
		t.Fatal("cache_hit difference accepted")
	}
}
