package netsim

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

type sealRaceScenario struct{}

func (sealRaceScenario) Name() string                      { return "sealrace" }
func (sealRaceScenario) Description() string               { return "repro" }
func (sealRaceScenario) Shape() string                     { return "repro" }
func (sealRaceScenario) Chunks(net *Network, p Params) int { return int(p.Duration) }
func (sealRaceScenario) ChunkSpan(net *Network, p Params, k int) (float64, float64) {
	return float64(k), float64(k) + 0.5
}
func (sealRaceScenario) Emit(net *Network, rng *rand.Rand, p Params, k int, emit func(Event)) error {
	hosts := net.Labels()
	for i := 0; i < 2000; i++ {
		emit(Event{Time: float64(k) + 0.25, Src: hosts[rng.Intn(len(hosts))], Dst: hosts[1], Packets: 1})
	}
	return nil
}

func TestStreamCSRDoubleSealRepro(t *testing.T) {
	s := sealRaceScenario{}
	net := StandardNetwork()
	boom := errors.New("boom")
	for i := 0; i < 300; i++ {
		_, _, err := StreamCSRArena(context.Background(), nil, s, net, 1, 8, Params{Duration: 256, Rate: 1}, 1, 0,
			func(k int, w SparseWindow) error {
				if k >= 4 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
}
