package patterns

import "repro/internal/matrix"

// Analysis is every reading of one traffic matrix, taken from one
// walk: the structural profile, the supernodes, and each classifier's
// verdict. The Classify…Of functions each return one field of it.
type Analysis struct {
	Profile matrix.Profile
	// Supernodes lists the hubs at SupernodeFanThreshold, busiest
	// first (matrix.SupernodesOf).
	Supernodes []matrix.HotSpot
	// Behavior is BehaviorUnknown, scored 0, when no behaviour
	// matches.
	Behavior      Behavior
	BehaviorScore float64
	Topology      TopologyKind
	Stage         AttackStage
	StageScore    float64
	// Mixture lists the recognized layers, strongest first.
	Mixture []MixtureComponent
}

// Analyze reads every classifier off one summary of m.
func Analyze(m matrix.Matrix, z Zones) Analysis {
	s := summarize(m, z)
	a := Analysis{
		Profile: s.profile, Supernodes: s.hubs,
		Topology: s.topology(), Mixture: s.mixture(),
	}
	a.Behavior, a.BehaviorScore = s.behavior()
	a.Stage, a.StageScore = s.attackStage()
	return a
}

// summary is what the classifiers read about one matrix, tallied in
// the single matrix.Summarize walk: each linked ordered pair arrives
// once with both of its directions, so reciprocity and balance are
// settled without a lookup.
type summary struct {
	zones     Zones
	profile   matrix.Profile
	hubs      []matrix.HotSpot
	fitsZones bool // square, sized to the zones, and not empty

	// cells counts every stored cell by (source zone, destination
	// zone), self loops included: the signature classifiers' table.
	cells [zoneCount][zoneCount]int
	// packets sums the off-diagonal traffic by zone pair; total is
	// its sum and offCells the number of off-diagonal cells.
	packets         [zoneCount][zoneCount]int
	total, offCells int

	// hosts holds each host's off-diagonal tallies.
	hosts []hostTally

	balancedBlue  int // balanced chatter volume touching blue space
	recipBlueBlue int // reciprocated blue→blue volume
	// bgVal is the heaviest blue→grey cell and bgRev the volume of
	// its reverse.
	bgVal, bgRev int
}

// hostTally is one host's off-diagonal tallies.
type hostTally struct {
	outPackets, inPackets int
	inFan                 int // distinct sources
	peers                 int // distinct counterparties, either direction
	blueSources           int // distinct blue sources of a blue host
	// scanPackets and scanCells tally the host's unreciprocated
	// red→blue probes.
	scanPackets, scanCells int
	// The arm stats of a blue host: the sources pouring unbalanced
	// traffic into it (arms, blueArms of them blue), their volume
	// (armVol, nonBlueVol of it from outside blue space), and the
	// host's replies to them.
	arms, blueArms, armVol, nonBlueVol, replies int
}

// summarize tallies m against the zones in one walk.
func summarize(m matrix.Matrix, z Zones) *summary {
	s := &summary{zones: z, hosts: make([]hostTally, m.Rows())}
	s.profile, s.hubs = matrix.Summarize(m, SupernodeFanThreshold, s.link)
	s.fitsZones = s.profile.N == z.N && s.profile.NNZ > 0
	return s
}

// link tallies one linked ordered pair: v = m[i][j], r = m[j][i].
func (s *summary) link(i, j, v, r int) {
	zi, zj := s.zones.Of(i), s.zones.Of(j)
	if i == j {
		if v != 0 {
			s.cells[zi][zj]++
		}
		return
	}
	src, dst := &s.hosts[i], &s.hosts[j]
	src.peers++
	if v == 0 {
		return
	}
	s.cells[zi][zj]++
	s.packets[zi][zj] += v
	s.total += v
	s.offCells++
	src.outPackets += v
	dst.inPackets += v
	dst.inFan++
	balanced := r > 0 && v < balanceRatio*r && r < balanceRatio*v
	if balanced && (zi == ZoneBlue || zj == ZoneBlue) && zi != ZoneRed && zj != ZoneRed {
		s.balancedBlue += v
	}
	if !balanced && zj == ZoneBlue && v >= balanceRatio*r {
		dst.arms++
		dst.armVol += v
		dst.replies += r
		if zi == ZoneBlue {
			dst.blueArms++
		} else {
			dst.nonBlueVol += v
		}
	}
	switch {
	case zi == ZoneBlue && zj == ZoneBlue:
		dst.blueSources++
		if r != 0 {
			s.recipBlueBlue += v
		}
	case zi == ZoneBlue && zj == ZoneGrey:
		if v > s.bgVal {
			s.bgVal, s.bgRev = v, r
		}
	case zi == ZoneRed && zj == ZoneBlue:
		if r == 0 {
			src.scanPackets += v
			src.scanCells++
		}
	}
}

// frac is v as a fraction of the off-diagonal traffic.
func (s *summary) frac(v int) float64 { return float64(v) / float64(s.total) }

// wormSpread is the worm reading shared by the behaviour and mixture
// classifiers: blue→blue spread plus the red→blue seed, and whether
// it reaches ≥ 2 distinct blue destinations while staying
// predominantly unreciprocated.
func (s *summary) wormSpread() (spread int, ok bool) {
	dsts := 0
	for _, h := range s.hosts {
		if h.blueSources > 0 {
			dsts++
		}
	}
	spread = s.packets[ZoneBlue][ZoneBlue] + s.packets[ZoneRed][ZoneBlue]
	return spread, dsts >= 2 && 2*s.recipBlueBlue <= spread
}

// beaconCarrier returns the blue→red carrier volume plus its tasking
// replies, and whether the carrier outweighs the replies.
func (s *summary) beaconCarrier() (volume int, ok bool) {
	br, rb := s.packets[ZoneBlue][ZoneRed], s.packets[ZoneRed][ZoneBlue]
	return br + rb, br > 0 && rb <= br
}
