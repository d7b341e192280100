package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/player"
)

// workload is one traffic mix. Every workload runs the same two
// phases, so every end-to-end metric has samples on every workload;
// what differs is where the time goes and what sits in the path:
//
//	mix      open loop, mixRate req/s over mixConns connections:
//	         60% warm generates, 20% module renders, 20% player steps
//	compute  closed loop, one client: unique-seed cold generates,
//	         3 batch to 1 stream
//
// mixShare is the share of the run spent in the mix phase.
// server_cpu_ms_per_req is taken from the compute phase when
// cpuFromCompute is set, else from the mix phase.
type workload struct {
	name           string
	proxied        bool
	mixShare       float64
	cpuFromCompute bool
}

var workloads = map[string]workload{
	// The compute path (netsim, matrix, patterns) with no cache and
	// no queueing; its mix phase is the direct baseline for proxied.
	"cold": {name: "cold", mixShare: 0.25, cpuFromCompute: true},
	// The mix and compute phases through twserve -proxy over two
	// backends: the only workload where cluster and router do work.
	"proxied": {name: "proxied", proxied: true, mixShare: 0.6},
}

const (
	mixRate  = 300 // requests per second offered in the mix phase
	mixConns = 2   // connections the open loop sends over

	pctWarm   = 60 // cumulative class boundaries of the mix
	pctModule = 80 // remainder: player steps

	// Player script: create, playerRounds start/submit pairs, one
	// advance, playerReads progress reads; then the player retires.
	playerRounds = 3
	playerReads  = 2
	// activePlayers bounds the players mid-script at once; more than
	// mixConns, so a free connection always finds a player whose
	// previous step has completed.
	activePlayers = 4

	// playerPattern is the module every attempt quizzes on (a figure
	// pattern, so a player step never pays a scenario generation).
	playerPattern = "fig9c-ddos-attack"
)

// loadShape is twload's generate shape: 200 hosts, 60 s at scale 8,
// 10 s windows, about 26k events. Workers stays unset, so the server
// default (all CPUs) applies.
func loadShape(spec string, seed int64) api.GenerateRequest {
	return api.GenerateRequest{Spec: spec, Seed: seed, Hosts: 200, Duration: 60, Scale: 8, Window: 10}
}

const (
	coldSpec = "overlay(background, sequence(scan, ddos))"
	// respelled is coldSpec in another spelling: one cache line, so a
	// hit on it shows canonical keying at work.
	respelled = "overlay( background ,sequence( scan,ddos ) )"
)

var modulePatterns = []string{
	"fig6a-isolated-links", "fig6b-single-links",
	"fig6c-internal-supernode", "fig9c-ddos-attack",
}

// warmReq is one request of the fixed lesson set; key groups the
// spellings that share a cache line.
type warmReq struct {
	key  int
	body []byte
}

// inputs is everything a run sends, derived from the seed alone.
type inputs struct {
	seed    int64
	warm    []warmReq
	modules [][]byte
	// slots is the mix phase's class per slot: 'w', 'm' or 'p', with
	// the warm/module index chosen for that slot.
	slots []slot
}

type slot struct {
	class byte
	index int
}

func newInputs(seed int64, mixSlots int) *inputs {
	in := &inputs{seed: seed}
	base := 100 + 10*seed%1_000_000
	lesson := []struct {
		spec string
		seed int64
		key  int
	}{
		{"scan", base + 1, 0},
		{"ddos", base + 2, 1},
		{coldSpec, base + 3, 2},
		{respelled, base + 3, 2},
	}
	for _, l := range lesson {
		in.warm = append(in.warm, warmReq{key: l.key, body: mustJSON(loadShape(l.spec, l.seed))})
	}
	for _, p := range modulePatterns {
		in.modules = append(in.modules, mustJSON(api.ModuleRequest{Pattern: p}))
	}
	rng := rand.New(rand.NewSource(seed))
	in.slots = make([]slot, mixSlots)
	for i := range in.slots {
		switch n := rng.Intn(100); {
		case n < pctWarm:
			in.slots[i] = slot{'w', rng.Intn(len(in.warm))}
		case n < pctModule:
			in.slots[i] = slot{'m', rng.Intn(len(in.modules))}
		default:
			in.slots[i] = slot{'p', 0}
		}
	}
	return in
}

// coldSeed is the k-th unique cold seed of the run: far above every
// lesson seed and disjoint between run seeds, so no cold request can
// hit a cache.
func (in *inputs) coldSeed(k int) int64 {
	return 1<<40 + (in.seed%1_000_000)*1_000_000 + int64(k)
}

// playerID is the n-th synthetic player of the run.
func (in *inputs) playerID(n int) string {
	return fmt.Sprintf("b%d-p%d", in.seed%1_000_000, n)
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only wire structs are marshalled here
	}
	return data
}

// client sends requests to one base URL over a bounded set of
// keep-alive connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one complete HTTP response.
type reply struct {
	status int
	cache  string // X-Cache header
	body   []byte
}

// do sends one request and reads the whole response body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: data}, nil
}

// streamReply is one streamed generate: its frames as sent and when
// the first window frame and the end of the stream arrived.
type streamReply struct {
	status      int
	frames      [][]byte
	firstWindow time.Duration
	total       time.Duration
}

// stream posts a streaming generate and reads every NDJSON frame.
func (c *client) stream(ctx context.Context, body []byte) (streamReply, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/generate/stream", bytes.NewReader(body))
	if err != nil {
		return streamReply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return streamReply{}, err
	}
	defer resp.Body.Close()
	out := streamReply{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		_, err := io.Copy(io.Discard, resp.Body)
		out.total = time.Since(start)
		return out, err
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var head struct {
				Type string `json:"type"`
			}
			if jerr := json.Unmarshal(line, &head); jerr != nil {
				return out, fmt.Errorf("stream frame: %w", jerr)
			}
			if head.Type == api.FrameWindow && out.firstWindow == 0 {
				out.firstWindow = time.Since(start)
			}
			out.frames = append(out.frames, line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
	}
	out.total = time.Since(start)
	return out, nil
}

// step is one HTTP request of a player script.
type step struct {
	kind   string // create, start, submit, advance, progress
	method string
	path   string
	body   []byte
}

// playerRun is one synthetic player working through the fixed
// script. Steps are built lazily because submit needs the attempt ID
// start returned and advance the unit create reported as available.
type playerRun struct {
	id      string
	cursor  int
	attempt int64
	unit    string
	submits int
	busy    bool
	// log keeps every step and response body of the run's first
	// player for the gate's in-process replay.
	log []loggedStep
}

type loggedStep struct {
	step
	resp []byte
}

// scriptLen is the number of steps in the fixed player script.
const scriptLen = 1 + 2*playerRounds + 1 + playerReads

// next builds the player's next step.
func (p *playerRun) next() step {
	switch c := p.cursor; {
	case c == 0:
		return step{"create", http.MethodPost, "/v1/player", mustJSON(api.PlayerCreateRequest{ID: p.id})}
	case c <= 2*playerRounds && c%2 == 1:
		return step{"start", http.MethodPost, "/v1/player/" + p.id + "/attempt",
			mustJSON(api.AttemptStartRequest{ModuleRef: player.ModuleRef{Pattern: playerPattern}})}
	case c <= 2*playerRounds:
		return step{"submit", http.MethodPost, fmt.Sprintf("/v1/player/%s/attempt/%d", p.id, p.attempt),
			mustJSON(api.AttemptSubmitRequest{Answer: 0})}
	case c == 2*playerRounds+1:
		return step{"advance", http.MethodPost, "/v1/player/" + p.id + "/progress",
			mustJSON(api.ProgressRequest{Unit: p.unit})}
	default:
		return step{"progress", http.MethodGet, "/v1/player/" + p.id + "/progress", nil}
	}
}

// absorb reads what later steps need from a 200 response and checks
// what the step promises; a non-nil error marks the response wrong.
func (p *playerRun) absorb(s step, body []byte) error {
	switch s.kind {
	case "create":
		var r api.PlayerResult
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Progress.Available) == 0 {
			return fmt.Errorf("player %s: no available unit to advance", p.id)
		}
		p.unit = r.Progress.Available[0]
	case "start":
		var r api.AttemptResult
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		p.attempt = r.Attempt.Attempt
	case "submit":
		var r api.SubmitResult
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		p.submits++
		if r.Answered != p.submits {
			return fmt.Errorf("player %s: submit %d reports %d answered", p.id, p.submits, r.Answered)
		}
	}
	return nil
}

// playerPool hands out the next step of some player whose previous
// step has completed, retiring finished players and enrolling fresh
// ones, so every player runs the same script and the store's
// per-player files stay the same size however long the run is.
type playerPool struct {
	mu      sync.Mutex
	in      *inputs
	active  []*playerRun
	retired []*playerRun
	made    int
	// logged is the run's first player: its steps and responses are
	// kept for the gate's in-process replay.
	logged *playerRun
}

func newPlayerPool(in *inputs) *playerPool {
	pp := &playerPool{in: in}
	for i := 0; i < activePlayers; i++ {
		pp.active = append(pp.active, pp.enroll())
	}
	pp.logged = pp.active[0]
	pp.logged.log = []loggedStep{}
	return pp
}

func (pp *playerPool) enroll() *playerRun {
	p := &playerRun{id: pp.in.playerID(pp.made)}
	pp.made++
	return p
}

// take reserves the first idle player, in enrolment order, and
// returns it with its next step. Taking in order keeps few players
// mid-script, so the first ones finish early even in a short run.
func (pp *playerPool) take() (*playerRun, step) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	for _, p := range pp.active {
		if !p.busy {
			p.busy = true
			return p, p.next()
		}
	}
	panic("every player busy: activePlayers must exceed the connection count")
}

// done records a step's outcome and releases the player. A failed
// step retires the player early (its later steps would fail too).
func (pp *playerPool) done(p *playerRun, s step, body []byte, ok bool) error {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	var err error
	if ok {
		err = p.absorb(s, body)
	}
	if p.log != nil {
		p.log = append(p.log, loggedStep{step: s, resp: body})
	}
	p.cursor++
	p.busy = false
	if !ok || err != nil || p.cursor == scriptLen {
		if !ok || err != nil {
			p.log = nil // an aborted script cannot be replayed
		}
		pp.retired = append(pp.retired, p)
		for i, a := range pp.active {
			if a == p {
				pp.active[i] = pp.enroll()
			}
		}
	}
	return err
}

// everyPlayer lists every player the run enrolled that has taken at
// least one step.
func (pp *playerPool) everyPlayer() []*playerRun {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	out := append([]*playerRun(nil), pp.retired...)
	for _, p := range pp.active {
		if p.cursor > 0 {
			out = append(out, p)
		}
	}
	return out
}

// replayLog returns the steps the first player took, in order, or
// nil when its script was aborted by a failure.
func (pp *playerPool) replayLog() []loggedStep {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.logged.log
}

// stepPath trims a step's path for error messages.
func stepPath(s step) string { return s.method + " " + strings.TrimPrefix(s.path, "/v1") }
