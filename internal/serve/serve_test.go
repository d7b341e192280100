package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/player"
)

// envelope is the decoded error body.
type envelope struct {
	Error        string `json:"error"`
	Version      string `json:"version"`
	RetryAfterMS *int64 `json:"retry_after_ms"`
}

func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) envelope {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var e envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("decode envelope %q: %v", rec.Body.String(), err)
	}
	return e
}

// TestServiceErrorStatusMapping pins every façade error → HTTP status
// mapping, wrapped the way callers actually return them, and the
// envelope each one answers with.
func TestServiceErrorStatusMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"api invalid", fmt.Errorf("%w: hosts out of range", api.ErrInvalidRequest), http.StatusBadRequest},
		{"player invalid", fmt.Errorf("%w: bad id", player.ErrInvalid), http.StatusBadRequest},
		{"player not found", fmt.Errorf("%w: ghost", player.ErrNotFound), http.StatusNotFound},
		{"player conflict", fmt.Errorf("%w: duplicate", player.ErrConflict), http.StatusConflict},
		{"session cancelled", fmt.Errorf("generate: %w", api.ErrSessionCancelled), http.StatusConflict},
		{"no backends", cluster.ErrNoBackends, http.StatusServiceUnavailable},
		{"no backends wrapped", fmt.Errorf("pick: %w", cluster.ErrNoBackends), http.StatusServiceUnavailable},
		{"deadline", fmt.Errorf("backend: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"cancelled", fmt.Errorf("backend: %w", context.Canceled), 499},
		{"other", errors.New("disk on fire"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			serviceError(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", nil), c.err)
			if rec.Code != c.want {
				t.Fatalf("status = %d, want %d", rec.Code, c.want)
			}
			e := decodeEnvelope(t, rec)
			if e.Error != c.err.Error() || e.Version != api.Version {
				t.Errorf("envelope = %+v, want error %q version %q", e, c.err.Error(), api.Version)
			}
			if e.RetryAfterMS != nil || rec.Header().Get("Retry-After") != "" {
				t.Errorf("non-429 carries retry fields: body %+v, header %q", e, rec.Header().Get("Retry-After"))
			}
		})
	}
}

// TestServiceErrorCancelledRequest: when the client's own request
// context is cancelled, whatever error the core returned maps to 499.
func TestServiceErrorCancelledRequest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/generate", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	serviceError(rec, req, errors.New("generate: aborted"))
	if rec.Code != 499 {
		t.Fatalf("status = %d, want 499", rec.Code)
	}
}

// TestServiceErrorRateLimit: a throttled player gets 429 with a
// Retry-After of the wait rounded up to whole seconds (minimum 1)
// and the exact wait as retry_after_ms.
func TestServiceErrorRateLimit(t *testing.T) {
	cases := []struct {
		wait       time.Duration
		wantHeader string
	}{
		{0, "1"},
		{200 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
		{2001 * time.Millisecond, "3"},
	}
	for _, c := range cases {
		t.Run(c.wait.String(), func(t *testing.T) {
			err := &player.RateLimitError{RetryAfter: c.wait}
			rec := httptest.NewRecorder()
			serviceError(rec, httptest.NewRequest(http.MethodGet, "/v1/player/p", nil), err)
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("status = %d, want 429", rec.Code)
			}
			if got := rec.Header().Get("Retry-After"); got != c.wantHeader {
				t.Errorf("Retry-After = %q, want %q", got, c.wantHeader)
			}
			e := decodeEnvelope(t, rec)
			if e.RetryAfterMS == nil || *e.RetryAfterMS != c.wait.Milliseconds() {
				t.Errorf("retry_after_ms = %v, want %d", e.RetryAfterMS, c.wait.Milliseconds())
			}
			if e.Error != err.Error() || e.Version != api.Version {
				t.Errorf("envelope = %+v", e)
			}
		})
	}
}

// TestReadJSON: bodies over MaxBodyBytes answer 413, empty and
// malformed bodies 400, and a well-formed body decodes.
func TestReadJSON(t *testing.T) {
	cases := []struct {
		name   string
		body   string
		ok     bool
		status int
		errHas string
	}{
		{"oversized", `{"spec":"` + strings.Repeat("x", MaxBodyBytes) + `"}`, false, http.StatusRequestEntityTooLarge, "limit"},
		{"empty", "", false, http.StatusBadRequest, "empty request body"},
		{"malformed", `{"spec":`, false, http.StatusBadRequest, "decode request"},
		{"wrong type", `{"seed":"seven"}`, false, http.StatusBadRequest, "decode request"},
		{"valid", `{"spec":"scan","seed":7}`, true, http.StatusOK, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/generate", strings.NewReader(c.body))
			var req api.GenerateRequest
			if got := readJSON(rec, r, &req); got != c.ok {
				t.Fatalf("readJSON = %v, want %v", got, c.ok)
			}
			if c.ok {
				if req.Spec != "scan" || req.Seed != 7 {
					t.Errorf("decoded %+v", req)
				}
				if rec.Body.Len() != 0 {
					t.Errorf("successful read wrote a response: %q", rec.Body.String())
				}
				return
			}
			if rec.Code != c.status {
				t.Fatalf("status = %d, want %d", rec.Code, c.status)
			}
			if e := decodeEnvelope(t, rec); !strings.Contains(e.Error, c.errHas) || e.Version != api.Version {
				t.Errorf("envelope = %+v, want error containing %q", e, c.errHas)
			}
		})
	}
}
