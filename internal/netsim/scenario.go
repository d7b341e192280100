package netsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/patterns"
)

// The catalog's built-in scenarios. Each type scripts one behaviour
// the learning modules teach and partitions its workload into
// independent chunks per the Scenario contract (see catalog.go), so
// the engine in generator.go can generate any of them on any number
// of workers with identical aggregate output.
//
// The original four scripts (background, scan, attack, ddos) mirror
// the paper's modules; the other four extend the catalog with
// behaviours from the wider traffic-matrix literature, each drawing
// a distinct shape the pattern classifiers can recognize.

// blueHosts returns workstation and server names in axis order.
func blueHosts(net *Network) []string {
	var out []string
	for _, h := range net.hosts {
		if h.Role == RoleWorkstation || h.Role == RoleServer {
			out = append(out, h.Name)
		}
	}
	return out
}

// secondChunks is the chunk count for open-ended scenarios that
// stream traffic second by second: one chunk per (whole or partial)
// second of the timeline, repeated Scale times.
func secondChunks(p Params) int {
	return p.Scale * int(math.Ceil(p.Duration))
}

// secondSpan maps a chunk index onto its one-second slot [start,end)
// of the timeline. Scale repetitions revisit the same slots, adding
// volume without stretching time.
func secondSpan(p Params, chunk int) (start, end float64) {
	secs := int(math.Ceil(p.Duration))
	sec := chunk % secs
	start = float64(sec)
	end = math.Min(start+1, p.Duration)
	return start, end
}

// replyLag pads the streaming time span of the second-sliced
// scenarios: their request events stay inside the chunk's one-second
// slot, but reply events trail the request by up to 0.02s and may
// cross the slot (and window) boundary. The pad is deliberately
// generous — a span only delays window sealing, it never changes the
// traffic.
const replyLag = 0.05

// secondChunkSpan is the ChunkSpan of the second-sliced scenarios:
// the chunk's slot padded by the reply lag.
func secondChunkSpan(p Params, chunk int) (start, end float64) {
	start, end = secondSpan(p, chunk)
	return start, end + replyLag
}

// ——— background ———

// backgroundScenario emits benign traffic: workstations talk to the
// servers and browse the externals, and most flows get a reply. Its
// matrix is a loose benign mesh confined to blue and grey space.
type backgroundScenario struct{}

func (backgroundScenario) Name() string { return "background" }
func (backgroundScenario) Description() string {
	return "benign workstation↔server and workstation↔external chatter"
}
func (backgroundScenario) Shape() string { return "benign blue/grey mesh" }

func (backgroundScenario) Chunks(net *Network, p Params) int { return secondChunks(p) }

func (backgroundScenario) ChunkSpan(net *Network, p Params, chunk int) (float64, float64) {
	return secondChunkSpan(p, chunk)
}

func (backgroundScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	workstations := net.ByRole(RoleWorkstation)
	servers := net.ByRole(RoleServer)
	externals := net.ByRole(RoleExternal)
	if len(workstations) == 0 || len(servers) == 0 {
		return fmt.Errorf("netsim: background needs workstations and a server")
	}
	start, end := secondSpan(p, chunk)
	// Allocate events so the chunks total ⌊rate·duration⌋ exactly,
	// matching the legacy Background volume: fractional rates below
	// one event/sec spread across seconds instead of rounding to
	// zero everywhere.
	n := int(math.Floor(p.Rate*end)) - int(math.Floor(p.Rate*start))
	for k := 0; k < n; k++ {
		t := start + rng.Float64()*(end-start)
		ws := workstations[rng.Intn(len(workstations))]
		var dst string
		switch {
		case len(externals) > 0 && rng.Float64() < 0.4:
			dst = externals[rng.Intn(len(externals))]
		default:
			dst = servers[rng.Intn(len(servers))]
		}
		emit(Event{Time: t, Src: ws, Dst: dst, Packets: 1 + rng.Intn(3)})
		// Most flows get a reply.
		if rng.Float64() < 0.8 {
			emit(Event{Time: t + 0.01, Src: dst, Dst: ws, Packets: 1 + rng.Intn(2)})
		}
	}
	return nil
}

// ——— scan ———

// scanScenario emits a reconnaissance sweep: an adversary probes
// every blue host once, spread across the duration — the external
// supernode shape appearing in live traffic. Scaled repetitions
// rotate through the adversaries.
type scanScenario struct{}

func (scanScenario) Name() string { return "scan" }
func (scanScenario) Description() string {
	return "adversary reconnaissance sweep probing every blue host"
}
func (scanScenario) Shape() string { return "external supernode (unreciprocated fan-out)" }

func (scanScenario) Chunks(net *Network, p Params) int { return p.Scale }

func (scanScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	advs := net.ByRole(RoleAdversary)
	if len(advs) == 0 {
		return fmt.Errorf("netsim: scan needs an adversary")
	}
	scanner := advs[chunk%len(advs)]
	targets := blueHosts(net)
	if len(targets) == 0 {
		return fmt.Errorf("netsim: scan needs blue hosts")
	}
	for k, dst := range targets {
		t := p.Duration * (float64(k) + rng.Float64()) / float64(len(targets))
		emit(Event{Time: t, Src: scanner, Dst: dst, Packets: 1})
	}
	return nil
}

// ——— attack ———

// attackScenario emits the paper's four-stage notional attack:
// planning in red space, staging into grey space, infiltration over
// the grey/blue border, and lateral movement inside blue space. Each
// stage occupies a quarter of the duration, so every window of the
// timeline is zone-pure and classifies as its own stage.
type attackScenario struct{}

func (attackScenario) Name() string { return "attack" }
func (attackScenario) Description() string {
	return "four-stage notional attack: planning, staging, infiltration, lateral movement"
}
func (attackScenario) Shape() string {
	return "zone migration: red→red, red→grey, grey→blue, blue→blue"
}

func (attackScenario) Chunks(net *Network, p Params) int { return p.Scale }

// stagePhases is the typed schedule the legacy API returns.
func (attackScenario) stagePhases(p Params) []AttackPhase {
	quarter := p.Duration / 4
	return []AttackPhase{
		{Stage: patterns.StagePlanning, Start: 0, End: quarter},
		{Stage: patterns.StageStaging, Start: quarter, End: 2 * quarter},
		{Stage: patterns.StageInfiltration, Start: 2 * quarter, End: 3 * quarter},
		{Stage: patterns.StageLateral, Start: 3 * quarter, End: p.Duration},
	}
}

// Schedule reports the stage timeline as generic ground-truth phases.
func (s attackScenario) Schedule(p Params) []Phase {
	p = p.withDefaults()
	var out []Phase
	for _, ph := range s.stagePhases(p) {
		out = append(out, Phase{Label: ph.Stage.String(), Start: ph.Start, End: ph.End})
	}
	return out
}

func (s attackScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	advs := net.ByRole(RoleAdversary)
	exts := net.ByRole(RoleExternal)
	blues := blueHosts(net)
	if len(advs) < 2 || len(exts) == 0 || len(blues) < 2 {
		return fmt.Errorf("netsim: attack needs ≥2 adversaries, externals, ≥2 blue hosts")
	}
	phases := s.stagePhases(p)
	jitter := func(ph AttackPhase) float64 {
		return ph.Start + rng.Float64()*(ph.End-ph.Start)
	}
	// Planning: adversaries coordinate pairwise in red space.
	for round := 0; round < 3; round++ {
		for i := range advs {
			j := (i + 1) % len(advs)
			t := jitter(phases[0])
			emit(Event{Time: t, Src: advs[i], Dst: advs[j], Packets: 1 + rng.Intn(2)})
			emit(Event{Time: t + 0.01, Src: advs[j], Dst: advs[i], Packets: 1})
		}
	}
	// Staging: each adversary provisions a greyspace host.
	for round := 0; round < 3; round++ {
		for i, adv := range advs {
			g := exts[i%len(exts)]
			t := jitter(phases[1])
			emit(Event{Time: t, Src: adv, Dst: g, Packets: 2})
			emit(Event{Time: t + 0.01, Src: g, Dst: adv, Packets: 1})
		}
	}
	// Infiltration: staged greyspace hosts push into blue space.
	for round := 0; round < 3; round++ {
		for i, g := range exts {
			b := blues[i%len(blues)]
			t := jitter(phases[2])
			emit(Event{Time: t, Src: g, Dst: b, Packets: 2})
			emit(Event{Time: t + 0.01, Src: b, Dst: g, Packets: 1})
		}
	}
	// Lateral movement: the foothold spreads between blue hosts.
	for round := 0; round < 3; round++ {
		for i := 0; i+1 < len(blues); i++ {
			t := jitter(phases[3])
			emit(Event{Time: t, Src: blues[i], Dst: blues[i+1], Packets: 2})
			emit(Event{Time: t + 0.01, Src: blues[i+1], Dst: blues[i], Packets: 1})
		}
	}
	return nil
}

// ——— ddos ———

// ddosScenario emits the paper's four-component DDoS: C2
// coordination, identical C2→bot instructions, the flood on the
// victim server, and the backscatter of replies. Roles follow the
// pattern library's standard cast so the classifier's ground truth
// matches.
type ddosScenario struct{}

func (ddosScenario) Name() string { return "ddos" }
func (ddosScenario) Description() string {
	return "four-component DDoS: C2 sync, botnet tasking, flood, backscatter"
}
func (ddosScenario) Shape() string { return "fan-in flood column on the victim with C2 clique" }

func (ddosScenario) Chunks(net *Network, p Params) int { return p.Scale }

// componentPhases is the typed schedule the legacy API returns.
func (ddosScenario) componentPhases(p Params) []DDoSPhase {
	quarter := p.Duration / 4
	return []DDoSPhase{
		{Component: patterns.DDoSC2, Start: 0, End: quarter},
		{Component: patterns.DDoSBotnet, Start: quarter, End: 2 * quarter},
		{Component: patterns.DDoSAttack, Start: 2 * quarter, End: 3 * quarter},
		{Component: patterns.DDoSBackscatter, Start: 3 * quarter, End: p.Duration},
	}
}

// Schedule reports the component timeline as generic ground-truth
// phases.
func (s ddosScenario) Schedule(p Params) []Phase {
	p = p.withDefaults()
	var out []Phase
	for _, ph := range s.componentPhases(p) {
		out = append(out, Phase{Label: ph.Component.String(), Start: ph.Start, End: ph.End})
	}
	return out
}

func (s ddosScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	zones, err := net.Zones()
	if err != nil {
		return err
	}
	roles, err := patterns.AssignDDoSRoles(zones)
	if err != nil {
		return err
	}
	labels := net.Labels()
	name := func(i int) string { return labels[i] }
	phases := s.componentPhases(p)
	jitter := func(ph DDoSPhase) float64 {
		return ph.Start + rng.Float64()*(ph.End-ph.Start)
	}
	// C2 sync.
	for round := 0; round < 4; round++ {
		for _, i := range roles.C2 {
			for _, j := range roles.C2 {
				if i != j {
					emit(Event{Time: jitter(phases[0]), Src: name(i), Dst: name(j), Packets: 1 + rng.Intn(2)})
				}
			}
		}
	}
	// Identical instructions to every bot.
	for round := 0; round < 2; round++ {
		for _, c2 := range roles.C2 {
			for _, bot := range roles.Bots {
				emit(Event{Time: jitter(phases[1]), Src: name(c2), Dst: name(bot), Packets: 2})
			}
		}
	}
	// The flood: every bot hammers the victim.
	for round := 0; round < 8; round++ {
		for _, bot := range roles.Bots {
			emit(Event{Time: jitter(phases[2]), Src: name(bot), Dst: name(roles.Victim), Packets: 3 + rng.Intn(4)})
		}
	}
	// Backscatter: the victim replies to the illegitimate traffic.
	for round := 0; round < 3; round++ {
		for _, bot := range roles.Bots {
			emit(Event{Time: jitter(phases[3]), Src: name(roles.Victim), Dst: name(bot), Packets: 1})
		}
	}
	return nil
}

// ——— worm ———

// wormScenario emits a self-propagating worm: an adversary seeds
// patient zero, then each generation every infected blue host
// compromises one more, doubling the infected population until blue
// space is saturated. The aggregate matrix is an unreciprocated
// blue→blue cascade tree rooted at a single red→blue seed — the
// doubling epidemic curve of the worm literature drawn as a traffic
// matrix.
type wormScenario struct{}

func (wormScenario) Name() string { return "worm" }
func (wormScenario) Description() string {
	return "self-propagating worm doubling through blue space from one red seed"
}
func (wormScenario) Shape() string { return "red→blue seed plus doubling blue→blue cascade tree" }

func (wormScenario) Chunks(net *Network, p Params) int { return p.Scale }

func (wormScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	advs := net.ByRole(RoleAdversary)
	blues := blueHosts(net)
	if len(advs) == 0 || len(blues) < 3 {
		return fmt.Errorf("netsim: worm needs an adversary and ≥3 blue hosts")
	}
	// Generations double the infected set: after g generations
	// min(2^g, n) hosts are infected, so saturation takes ⌈log₂ n⌉
	// generations plus the seed slot.
	gens := int(math.Ceil(math.Log2(float64(len(blues)))))
	slot := p.Duration / float64(gens+1)
	seeder := advs[chunk%len(advs)]
	emit(Event{
		Time: rng.Float64() * slot, Src: seeder, Dst: blues[0],
		Packets: 2 + rng.Intn(2),
	})
	infected := 1
	for g := 0; infected < len(blues); g++ {
		limit := infected // everyone infected so far spreads once
		for i := 0; i < limit && infected < len(blues); i++ {
			t := slot*float64(g+1) + rng.Float64()*slot
			emit(Event{Time: t, Src: blues[i], Dst: blues[infected], Packets: 2 + rng.Intn(2)})
			infected++
		}
	}
	return nil
}

// ——— exfiltration ———

// exfilScenario emits a data theft: one compromised workstation
// streams heavy flows to a single external staging host, with an
// occasional one-packet acknowledgement trickling back. The matrix
// shape is a single dominant blue→grey cell whose volume dwarfs its
// reverse — the asymmetry analysts hunt for.
type exfilScenario struct{}

func (exfilScenario) Name() string { return "exfil" }
func (exfilScenario) Description() string {
	return "bulk data exfiltration from one workstation to an external staging host"
}
func (exfilScenario) Shape() string { return "single dominant asymmetric blue→grey link" }

func (exfilScenario) Chunks(net *Network, p Params) int { return secondChunks(p) }

func (exfilScenario) ChunkSpan(net *Network, p Params, chunk int) (float64, float64) {
	return secondChunkSpan(p, chunk)
}

func (exfilScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	workstations := net.ByRole(RoleWorkstation)
	externals := net.ByRole(RoleExternal)
	if len(workstations) == 0 || len(externals) == 0 {
		return fmt.Errorf("netsim: exfil needs a workstation and an external host")
	}
	src := workstations[0]
	dst := externals[len(externals)-1]
	start, end := secondSpan(p, chunk)
	n := int(math.Round(p.Rate * (end - start)))
	if n < 1 {
		n = 1
	}
	for k := 0; k < n; k++ {
		t := start + rng.Float64()*(end-start)
		emit(Event{Time: t, Src: src, Dst: dst, Packets: 8 + rng.Intn(7)})
		// Sparse acknowledgements keep the reverse cell visible but
		// tiny, preserving the tell-tale asymmetry.
		if rng.Float64() < 0.3 {
			emit(Event{Time: t + 0.01, Src: dst, Dst: src, Packets: 1})
		}
	}
	return nil
}

// ——— flash crowd ———

// flashCrowdScenario emits a legitimate demand spike: every
// workstation and external client hammers the blue server at once (a
// viral link, a ticket drop). The shape is an internal supernode —
// one heavy fan-in column on a blue host — which students must learn
// to distinguish from the DDoS flood it superficially resembles.
type flashCrowdScenario struct{}

func (flashCrowdScenario) Name() string { return "flashcrowd" }
func (flashCrowdScenario) Description() string {
	return "legitimate demand spike: every client hits the blue server at once"
}
func (flashCrowdScenario) Shape() string {
	return "internal supernode (heavy reciprocated fan-in on the server)"
}

func (flashCrowdScenario) Chunks(net *Network, p Params) int { return secondChunks(p) }

func (flashCrowdScenario) ChunkSpan(net *Network, p Params, chunk int) (float64, float64) {
	return secondChunkSpan(p, chunk)
}

func (flashCrowdScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	servers := net.ByRole(RoleServer)
	if len(servers) == 0 {
		return fmt.Errorf("netsim: flashcrowd needs a server")
	}
	var clients []string
	clients = append(clients, net.ByRole(RoleWorkstation)...)
	clients = append(clients, net.ByRole(RoleExternal)...)
	if len(clients) < patterns.SupernodeFanThreshold {
		return fmt.Errorf("netsim: flashcrowd needs ≥%d clients", patterns.SupernodeFanThreshold)
	}
	srv := servers[len(servers)-1]
	start, end := secondSpan(p, chunk)
	for _, client := range clients {
		hits := 1 + rng.Intn(3)
		for h := 0; h < hits; h++ {
			t := start + rng.Float64()*(end-start)
			emit(Event{Time: t, Src: client, Dst: srv, Packets: 2 + rng.Intn(3)})
			if rng.Float64() < 0.5 {
				emit(Event{Time: t + 0.01, Src: srv, Dst: client, Packets: 1})
			}
		}
	}
	return nil
}

// ——— C2 beaconing ———

// beaconScenario emits covert command-and-control beaconing: a
// compromised workstation phones home to a red C2 host on a fixed
// period with slight jitter, one packet at a time, occasionally
// receiving a tasking reply. The matrix is a single light blue→red
// cell — nearly invisible next to any other traffic, which is the
// lesson.
type beaconScenario struct{}

func (beaconScenario) Name() string { return "beacon" }
func (beaconScenario) Description() string {
	return "covert C2 beaconing from a compromised workstation on a fixed period"
}
func (beaconScenario) Shape() string { return "single light periodic blue→red link" }

func (beaconScenario) Chunks(net *Network, p Params) int { return p.Scale }

func (beaconScenario) Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error {
	workstations := net.ByRole(RoleWorkstation)
	advs := net.ByRole(RoleAdversary)
	if len(workstations) == 0 || len(advs) == 0 {
		return fmt.Errorf("netsim: beacon needs a workstation and an adversary C2")
	}
	src := workstations[len(workstations)-1]
	c2 := advs[0]
	beats := 16
	period := p.Duration / float64(beats)
	for k := 0; k < beats; k++ {
		t := (float64(k) + 0.1*rng.Float64()) * period
		emit(Event{Time: t, Src: src, Dst: c2, Packets: 1})
		// The occasional tasking reply.
		if rng.Float64() < 0.25 {
			emit(Event{Time: t + 0.02, Src: c2, Dst: src, Packets: 1})
		}
	}
	return nil
}

// ——— legacy single-threaded API ———

// The four original scenario functions remain as thin adapters over
// the catalog: each seeds the chunked engine from the caller's RNG
// stream and runs it on one worker, so existing callers keep their
// (seed-deterministic) behaviour while the scripts live in exactly
// one place.

// AttackPhase is one timed stage of the attack scenario.
type AttackPhase struct {
	// Stage is the pattern-library stage this phase acts out.
	Stage patterns.AttackStage
	// Start and End bound the phase in seconds.
	Start, End float64
}

// DDoSPhase is one timed component of the DDoS scenario.
type DDoSPhase struct {
	// Component is the pattern-library component this phase acts
	// out.
	Component patterns.DDoSComponent
	// Start and End bound the phase in seconds.
	Start, End float64
}

// Background emits benign traffic for the duration: workstations
// talk to the server and browse the externals, and the server
// replies. eventsPerSecond controls intensity. The result is the
// "random background noise" the paper suggests mixing into harder
// exercises.
func Background(net *Network, rng *rand.Rand, duration, eventsPerSecond float64) (Trace, error) {
	if rng == nil {
		return nil, fmt.Errorf("netsim: nil random source")
	}
	if duration <= 0 || eventsPerSecond <= 0 {
		return nil, fmt.Errorf("netsim: duration and rate must be positive")
	}
	return GenerateTraceArena(context.Background(), nil, backgroundScenario{}, net, rng.Int63(), 1,
		Params{Duration: duration, Rate: eventsPerSecond})
}

// Scan emits a reconnaissance sweep: one adversary probes every
// blue host once, spread across the duration — the external
// supernode shape appearing in live traffic.
func Scan(net *Network, rng *rand.Rand, duration float64) (Trace, error) {
	if rng == nil {
		return nil, fmt.Errorf("netsim: nil random source")
	}
	if duration <= 0 {
		return nil, fmt.Errorf("netsim: duration must be positive")
	}
	return GenerateTraceArena(context.Background(), nil, scanScenario{}, net, rng.Int63(), 1, Params{Duration: duration})
}

// AttackScenario emits the four-stage notional attack, each stage
// occupying a quarter of the duration. It returns the trace and the
// phase schedule (ground truth for the analyst examples).
func AttackScenario(net *Network, rng *rand.Rand, duration float64) (Trace, []AttackPhase, error) {
	if rng == nil {
		return nil, nil, fmt.Errorf("netsim: nil random source")
	}
	if duration <= 0 {
		return nil, nil, fmt.Errorf("netsim: duration must be positive")
	}
	p := Params{Duration: duration}
	trace, err := GenerateTraceArena(context.Background(), nil, attackScenario{}, net, rng.Int63(), 1, p)
	if err != nil {
		return nil, nil, err
	}
	return trace, attackScenario{}.stagePhases(p.withDefaults()), nil
}

// DDoSScenario emits the four-component DDoS: C2 coordination,
// identical C2→bot instructions, the flood on the victim server,
// and the backscatter of replies. Roles follow the pattern
// library's standard cast so the classifier's ground truth matches.
func DDoSScenario(net *Network, rng *rand.Rand, duration float64) (Trace, []DDoSPhase, error) {
	if rng == nil {
		return nil, nil, fmt.Errorf("netsim: nil random source")
	}
	if duration <= 0 {
		return nil, nil, fmt.Errorf("netsim: duration must be positive")
	}
	p := Params{Duration: duration}
	trace, err := GenerateTraceArena(context.Background(), nil, ddosScenario{}, net, rng.Int63(), 1, p)
	if err != nil {
		return nil, nil, err
	}
	return trace, ddosScenario{}.componentPhases(p.withDefaults()), nil
}
