package patterns

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/matrix"
)

// The reference classifiers below are the readings as they were
// computed before the one-pass summary: one walk per classifier, each
// reverse cell looked up with At. TestAnalyzeMatchesReference holds
// Analyze to them, reading for reading, on random matrices.

func referenceBehavior(m matrix.Matrix, z Zones) (Behavior, float64) {
	if m.Rows() != m.Cols() || m.Rows() != z.N || m.NNZ() == 0 {
		return BehaviorUnknown, 0
	}
	n := m.Rows()
	total := 0
	zonePackets := map[[2]Zone]int{}
	inPackets := make([]int, n) // off-diagonal inbound packets per column
	inFan := make([]int, n)     // distinct off-diagonal sources per column
	blueBlueDsts := map[int]bool{}
	reciprocated := 0                // reciprocated blue→blue packet volume
	bgRow, bgCol, bgVal := -1, -1, 0 // heaviest blue→grey cell
	matrix.EachStored(m, func(i, j, v int) {
		if i == j {
			return
		}
		zi, zj := z.Of(i), z.Of(j)
		total += v
		zonePackets[[2]Zone{zi, zj}] += v
		inPackets[j] += v
		inFan[j]++
		if zi == ZoneBlue && zj == ZoneBlue {
			blueBlueDsts[j] = true
			if m.At(j, i) != 0 {
				reciprocated += v
			}
		}
		if zi == ZoneBlue && zj == ZoneGrey && v > bgVal {
			bgRow, bgCol, bgVal = i, j, v
		}
	})
	if total == 0 {
		return BehaviorUnknown, 0
	}
	score := map[Behavior]float64{}

	// Flash crowd: the busiest qualifying blue hub, scored by the
	// packets it exchanges (crowd in plus replies out).
	hub := -1
	for j := 0; j < n; j++ {
		if z.Of(j) != ZoneBlue || inFan[j] < SupernodeFanThreshold {
			continue
		}
		if hub == -1 || inPackets[j] > inPackets[hub] {
			hub = j
		}
	}
	if hub >= 0 {
		exchanged := inPackets[hub]
		m.Row(hub, func(j, v int) {
			if j != hub {
				exchanged += v
			}
		})
		score[BehaviorFlashCrowd] = float64(exchanged) / float64(total)
	}

	// Worm: spreading blue→blue plus the red→blue seed. The cascade
	// must be predominantly unreciprocated — benign blue chatter and
	// lateral-movement scripts answer back, an infection push does
	// not.
	if len(blueBlueDsts) >= 2 {
		spread := zonePackets[[2]Zone{ZoneBlue, ZoneBlue}] + zonePackets[[2]Zone{ZoneRed, ZoneBlue}]
		if 2*reciprocated <= spread {
			score[BehaviorWorm] = float64(spread) / float64(total)
		}
	}

	// Exfiltration: the dominant blue→grey cell, gated on ≥4×
	// volume asymmetry against its reverse.
	if bgVal > 0 && m.At(bgCol, bgRow) <= bgVal/4 {
		score[BehaviorExfiltration] = float64(bgVal) / float64(total)
	}

	// Beaconing: blue→red with at most symmetric tasking back.
	br := zonePackets[[2]Zone{ZoneBlue, ZoneRed}]
	rb := zonePackets[[2]Zone{ZoneRed, ZoneBlue}]
	if br > 0 && rb <= br {
		score[BehaviorBeaconing] = float64(br+rb) / float64(total)
	}

	best, bestScore := BehaviorUnknown, 0.0
	for _, b := range Behaviors {
		if s := score[b]; s > bestScore {
			best, bestScore = b, s
		}
	}
	return best, bestScore
}

func referenceTopology(m matrix.Matrix, z Zones) TopologyKind {
	if m.Rows() != m.Cols() || m.Rows() != z.N || m.NNZ() == 0 {
		return TopologyUnknown
	}
	n := m.Rows()
	// peers[v] is the set of distinct off-diagonal counterparties.
	peers := make([]map[int]bool, n)
	reciprocalOnly := true
	anyReciprocal := false
	matrix.EachStored(m, func(i, j, _ int) {
		if i == j {
			return
		}
		if peers[i] == nil {
			peers[i] = make(map[int]bool)
		}
		if peers[j] == nil {
			peers[j] = make(map[int]bool)
		}
		peers[i][j] = true
		peers[j][i] = true
		if m.At(j, i) != 0 {
			anyReciprocal = true
		} else {
			reciprocalOnly = false
		}
	})
	maxFan, hub := 0, -1
	allFanOne := true
	for v := 0; v < n; v++ {
		fan := len(peers[v])
		if fan > maxFan {
			maxFan, hub = fan, v
		}
		if fan > 1 {
			allFanOne = false
		}
	}
	if maxFan >= SupernodeFanThreshold {
		if z.Of(hub) == ZoneBlue {
			return TopologyInternalSupernode
		}
		return TopologyExternalSupernode
	}
	if allFanOne {
		if reciprocalOnly && anyReciprocal {
			return TopologyIsolatedLinks
		}
		if !anyReciprocal {
			return TopologySingleLinks
		}
	}
	return TopologyUnknown
}

func referenceAttackStage(m matrix.Matrix, z Zones) (AttackStage, float64) {
	counts, total := referenceZoneCells(m, z)
	best, bestScore := StagePlanning, -1.0
	for _, stage := range AttackStages {
		if score := signatureFraction(counts, total, attackSignatures[stage]); score > bestScore {
			best, bestScore = stage, score
		}
	}
	return best, bestScore
}

func referenceZoneCells(m matrix.Matrix, z Zones) (counts [zoneCount][zoneCount]int, total int) {
	matrix.EachStored(m, func(i, j, _ int) {
		counts[z.Of(i)][z.Of(j)]++
		total++
	})
	return counts, total
}

func referenceMixture(m matrix.Matrix, z Zones) []MixtureComponent {
	scores := referenceMixtureScores(m, z)
	var out []MixtureComponent
	for _, label := range mixtureLabels {
		if s := scores[label]; s >= MinMixtureScore {
			if s > 1 {
				s = 1
			}
			out = append(out, MixtureComponent{Label: label, Score: s})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

func referenceMixtureScores(m matrix.Matrix, z Zones) map[string]float64 {
	scores := map[string]float64{}
	if m.Rows() != m.Cols() || m.Rows() != z.N || m.NNZ() == 0 {
		return scores
	}
	n := m.Rows()

	total := 0      // all off-diagonal packets
	totalCells := 0 // all off-diagonal stored cells
	zonePackets := map[[2]Zone]int{}
	balancedBlue := 0             // balanced chatter volume touching blue space
	scanPackets := make([]int, n) // per red row: unreciprocated red→blue volume
	scanCells := make([]int, n)   // per red row: distinct unreciprocated blue targets
	// unbalanced[j] maps each source pouring unbalanced traffic into
	// column j to that traffic's volume (candidate flood/crowd arms).
	unbalanced := make([]map[int]int, n)
	blueBlueDsts := map[int]bool{}
	recipBlueBlue := 0               // reciprocated blue→blue volume
	bgRow, bgCol, bgVal := -1, -1, 0 // heaviest blue→grey cell

	matrix.EachStored(m, func(i, j, v int) {
		if i == j {
			return
		}
		zi, zj := z.Of(i), z.Of(j)
		total += v
		totalCells++
		zonePackets[[2]Zone{zi, zj}] += v
		r := m.At(j, i)
		balanced := r > 0 && v < balanceRatio*r && r < balanceRatio*v
		if balanced && (zi == ZoneBlue || zj == ZoneBlue) && zi != ZoneRed && zj != ZoneRed {
			balancedBlue += v
		}
		if !balanced && zj == ZoneBlue && v >= balanceRatio*r {
			if unbalanced[j] == nil {
				unbalanced[j] = make(map[int]int)
			}
			unbalanced[j][i] += v
		}
		if zi == ZoneBlue && zj == ZoneBlue {
			blueBlueDsts[j] = true
			if r != 0 {
				recipBlueBlue += v
			}
		}
		if zi == ZoneBlue && zj == ZoneGrey && v > bgVal {
			bgRow, bgCol, bgVal = i, j, v
		}
		if zi == ZoneRed && zj == ZoneBlue && r == 0 {
			scanPackets[i] += v
			scanCells[i]++
		}
	})
	if total == 0 {
		return scores
	}
	frac := func(v int) float64 { return float64(v) / float64(total) }
	cellFrac := func(c int) float64 { return float64(c) / float64(totalCells) }

	// background: balanced conversational volume in blue/grey space.
	scores["background"] = frac(balancedBlue)

	// scan: every red row probing enough distinct blue targets
	// contributes; light probes score by structure (cells) when the
	// volume fraction undersells them.
	scannedPkts, scannedCells := 0, 0
	for i := 0; i < n; i++ {
		if z.Of(i) == ZoneRed && scanCells[i] >= SupernodeFanThreshold {
			scannedPkts += scanPackets[i]
			scannedCells += scanCells[i]
		}
	}
	scores["scan"] = max(frac(scannedPkts), cellFrac(scannedCells))

	// attack: balanced four-stage zone migration — 4× the weakest
	// stage fraction, so a pure quarter-per-stage campaign scores 1
	// and a mixture missing any stage scores 0.
	weakest := -1.0
	for _, stage := range AttackStages {
		hits := 0
		for pair := range attackSignatures[stage] {
			hits += zonePackets[pair]
		}
		if f := frac(hits); weakest < 0 || f < weakest {
			weakest = f
		}
	}
	if weakest > 0 {
		scores["attack"] = 4 * weakest
	}

	// ddos and flashcrowd: both are unbalanced fan-in columns on a
	// blue host; the source mix separates them — the flood arrives
	// from outside blue space, the crowd mostly from inside it.
	for j := 0; j < n; j++ {
		arms := unbalanced[j]
		if z.Of(j) != ZoneBlue || len(arms) < SupernodeFanThreshold {
			continue
		}
		inVol, blueArms, nonBlueArms, nonBlueVol := 0, 0, 0, 0
		for i, v := range arms {
			inVol += v
			if z.Of(i) == ZoneBlue {
				blueArms++
			} else {
				nonBlueArms++
				nonBlueVol += v
			}
		}
		// Replies out of the hub to its unbalanced sources: the
		// crowd's acknowledgements, the flood's backscatter.
		replies := 0
		m.Row(j, func(k, v int) {
			if _, ok := arms[k]; ok {
				replies += v
			}
		})
		if nonBlueArms >= SupernodeFanThreshold {
			flood := frac(nonBlueVol+replies) + frac(zonePackets[[2]Zone{ZoneRed, ZoneRed}])
			if flood > scores["ddos"] {
				scores["ddos"] = flood
			}
		}
		if 2*blueArms >= len(arms) {
			crowd := frac(inVol + replies)
			if crowd > scores["flashcrowd"] {
				scores["flashcrowd"] = crowd
			}
		}
	}

	// worm: predominantly unreciprocated blue→blue spread plus the
	// red→blue seed.
	if len(blueBlueDsts) >= 2 {
		spread := zonePackets[[2]Zone{ZoneBlue, ZoneBlue}] + zonePackets[[2]Zone{ZoneRed, ZoneBlue}]
		if 2*recipBlueBlue <= spread {
			scores["worm"] = frac(spread)
		}
	}

	// exfil: the dominant blue→grey cell, gated on asymmetry.
	if bgVal > 0 && m.At(bgCol, bgRow) <= bgVal/balanceRatio {
		scores["exfil"] = frac(bgVal)
	}

	// beacon: blue→red carrier with at most symmetric tasking back;
	// a light covert channel scores by structure when volume
	// undersells it.
	br := zonePackets[[2]Zone{ZoneBlue, ZoneRed}]
	rb := zonePackets[[2]Zone{ZoneRed, ZoneBlue}]
	if br > 0 && rb <= br {
		beaconCells := 0
		matrix.EachStored(m, func(i, j, _ int) {
			if z.Of(i) == ZoneBlue && z.Of(j) == ZoneRed {
				beaconCells++
			}
		})
		scores["beacon"] = max(frac(br+rb), cellFrac(beaconCells))
	}
	return scores
}

// TestAnalyzeMatchesReference checks every Analyze reading against
// the reference classifiers on random matrices through both
// representations. Reciprocated cells draw both directions from
// 1–12, so the 3× balance, 4× exfiltration and fan thresholds are
// crossed on both sides; a zone split one host too long exercises
// the size gates.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(16)
		z := Zones{N: n, BlueEnd: rng.Intn(n + 1)}
		z.GreyEnd = z.BlueEnd + rng.Intn(n-z.BlueEnd+1)
		if rng.Intn(10) == 0 {
			z.N++
		}
		d := matrix.NewSquare(n)
		for k := rng.Intn(2 * n * n); k > 0; k-- {
			i, j := rng.Intn(n), rng.Intn(n)
			d.Set(i, j, 1+rng.Intn(12))
			if rng.Intn(2) == 0 {
				d.Set(j, i, 1+rng.Intn(12))
			}
		}
		for _, m := range []matrix.Matrix{d, matrix.FromDense(d).ToCSR()} {
			a := Analyze(m, z)
			if b, s := referenceBehavior(m, z); a.Behavior != b || a.BehaviorScore != s {
				t.Fatalf("trial %d: behavior %v (%v), reference %v (%v)\n%v", trial, a.Behavior, a.BehaviorScore, b, s, d)
			}
			if top := referenceTopology(m, z); a.Topology != top {
				t.Fatalf("trial %d: topology %v, reference %v\n%v", trial, a.Topology, top, d)
			}
			if st, s := referenceAttackStage(m, z); a.Stage != st || a.StageScore != s {
				t.Fatalf("trial %d: stage %v (%v), reference %v (%v)\n%v", trial, a.Stage, a.StageScore, st, s, d)
			}
			if mix := referenceMixture(m, z); !reflect.DeepEqual(a.Mixture, mix) {
				t.Fatalf("trial %d: mixture %v, reference %v\n%v", trial, a.Mixture, mix, d)
			}
		}
	}
}
