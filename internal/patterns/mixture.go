package patterns

import (
	"cmp"
	"slices"

	"repro/internal/matrix"
)

// Mixture-aware classification for the composition algebra: where
// ClassifyBehaviorOf and ClassifyTopologyOf each pick ONE best reading,
// real (and composed) traffic layers several shapes at once — a scan
// on top of background chatter, a DDoS following a worm.
// ClassifyMixtureOf scores every catalog shape independently against
// the same matrix and returns all components above a noise floor,
// ranked, so an analyst exercise can ask "which two behaviours are
// mixed here?" and grade the answer mechanically.

// MixtureComponent is one recognized layer of a traffic mixture.
type MixtureComponent struct {
	// Label names the shape using the netsim catalog vocabulary
	// ("background", "scan", "ddos", "attack", "worm", "exfil",
	// "flashcrowd", "beacon").
	Label string
	// Score is the fraction of off-diagonal traffic the shape's
	// signature explains, in [0,1] — by packet volume for the heavy
	// shapes, by active-cell count for the structurally light ones
	// (scan, beacon), whichever is larger. Scores are independent per
	// shape (layers overlap), so they need not sum to 1.
	Score float64
}

// MinMixtureScore is the noise floor: shapes explaining less than
// this fraction of the traffic are not reported as mixture
// components.
const MinMixtureScore = 0.05

// balanceRatio bounds how lopsided a reciprocated link may be and
// still read as conversational: a pair is balanced when each
// direction stays strictly below balanceRatio times the other.
// Request/reply chatter (roughly 2:1) sits inside the bound; floods,
// crowds, and exfiltration run at 3:1 or worse — the paper's own
// DDoS module floods at exactly three times its backscatter — and
// fall outside it.
const balanceRatio = 3

// mixtureLabels fixes the vocabulary and its tie-break order; the
// mix… constants index it.
var mixtureLabels = [...]string{
	"background", "scan", "attack", "ddos",
	"worm", "exfil", "flashcrowd", "beacon",
}

const (
	mixBackground = iota
	mixScan
	mixAttack
	mixDDoS
	mixWorm
	mixExfil
	mixFlashCrowd
	mixBeacon
)

// ClassifyMixtureOf scores every catalog shape against the matrix and
// returns the components above MinMixtureScore, strongest first (ties
// break in mixtureLabels order). A pure single-scenario matrix
// reports its own shape dominant; an overlay reports each layer it
// can still discern. It consumes the read-only accessor interface, so
// Dense and CSR classify identically, visiting only stored entries.
//
// Each shape is gated on the structural feature that separates it
// from its neighbours:
//
//   - background: balanced reciprocated chatter touching blue space
//     (blue↔blue, blue↔grey) — floods and exfiltration fail the
//     balance gate even though their victims reply;
//   - scan: unreciprocated red→blue probes from a red source fanning
//     to ≥ SupernodeFanThreshold blue targets (scored by cells as
//     well as volume: probes are light by design);
//   - attack: balanced zone migration — scored by 4× the weakest of
//     the four stage signatures, so a pure campaign scores 1 and a
//     mixture missing any stage scores 0;
//   - ddos: a blue column absorbing unbalanced fan-in from ≥
//     SupernodeFanThreshold non-blue sources, plus its backscatter
//     and any red→red C2 clique;
//   - flashcrowd: a blue column absorbing unbalanced fan-in from ≥
//     SupernodeFanThreshold sources at least half of which are blue —
//     the legitimate-demand tell the flood lacks;
//   - worm: predominantly unreciprocated blue→blue spread to ≥ 2
//     distinct destinations plus the red→blue seed;
//   - exfil: one dominant blue→grey cell ≥ balanceRatio× its
//     reverse;
//   - beacon: light blue→red carrier with at most symmetric tasking
//     replies (scored by cells as well as volume).
func ClassifyMixtureOf(m matrix.Matrix, z Zones) []MixtureComponent {
	return summarize(m, z).mixture()
}

// mixture is the ClassifyMixtureOf reading of the summary.
func (s *summary) mixture() []MixtureComponent {
	scores := s.mixtureScores()
	var out []MixtureComponent
	for k, label := range mixtureLabels {
		if sc := scores[k]; sc >= MinMixtureScore {
			out = append(out, MixtureComponent{Label: label, Score: min(sc, 1)})
		}
	}
	slices.SortStableFunc(out, func(a, b MixtureComponent) int { return cmp.Compare(b.Score, a.Score) })
	return out
}

// mixtureScores scores every shape from the summary's tallies,
// indexed like mixtureLabels.
func (s *summary) mixtureScores() (scores [len(mixtureLabels)]float64) {
	if !s.fitsZones || s.total == 0 {
		return scores
	}
	cellFrac := func(c int) float64 { return float64(c) / float64(s.offCells) }

	// background: balanced conversational volume in blue/grey space.
	scores[mixBackground] = s.frac(s.balancedBlue)

	// scan: every red row probing enough distinct blue targets
	// contributes; light probes score by structure (cells) when the
	// volume fraction undersells them.
	scannedPkts, scannedCells := 0, 0
	for i, h := range s.hosts {
		if s.zones.Of(i) == ZoneRed && h.scanCells >= SupernodeFanThreshold {
			scannedPkts += h.scanPackets
			scannedCells += h.scanCells
		}
	}
	scores[mixScan] = max(s.frac(scannedPkts), cellFrac(scannedCells))

	// attack: balanced four-stage zone migration — 4× the weakest
	// stage fraction, so a pure quarter-per-stage campaign scores 1
	// and a mixture missing any stage scores 0.
	weakest := -1.0
	for _, stage := range AttackStages {
		hits := 0
		for pair := range attackSignatures[stage] {
			hits += s.packets[pair[0]][pair[1]]
		}
		if f := s.frac(hits); weakest < 0 || f < weakest {
			weakest = f
		}
	}
	if weakest > 0 {
		scores[mixAttack] = 4 * weakest
	}

	// ddos and flashcrowd: both are unbalanced fan-in columns on a
	// blue host; the source mix separates them — the flood arrives
	// from outside blue space, the crowd mostly from inside it. The
	// replies are the hub's traffic back to those sources: the
	// crowd's acknowledgements, the flood's backscatter.
	for j, h := range s.hosts {
		if s.zones.Of(j) != ZoneBlue || h.arms < SupernodeFanThreshold {
			continue
		}
		if h.arms-h.blueArms >= SupernodeFanThreshold {
			flood := s.frac(h.nonBlueVol+h.replies) + s.frac(s.packets[ZoneRed][ZoneRed])
			scores[mixDDoS] = max(scores[mixDDoS], flood)
		}
		if 2*h.blueArms >= h.arms {
			scores[mixFlashCrowd] = max(scores[mixFlashCrowd], s.frac(h.armVol+h.replies))
		}
	}

	// worm: predominantly unreciprocated blue→blue spread plus the
	// red→blue seed.
	if spread, ok := s.wormSpread(); ok {
		scores[mixWorm] = s.frac(spread)
	}

	// exfil: the dominant blue→grey cell, gated on asymmetry.
	if s.bgVal > 0 && s.bgRev <= s.bgVal/balanceRatio {
		scores[mixExfil] = s.frac(s.bgVal)
	}

	// beacon: blue→red carrier with at most symmetric tasking back;
	// a light covert channel scores by structure when volume
	// undersells it.
	if volume, ok := s.beaconCarrier(); ok {
		scores[mixBeacon] = max(s.frac(volume), cellFrac(s.cells[ZoneBlue][ZoneRed]))
	}
	return scores
}
