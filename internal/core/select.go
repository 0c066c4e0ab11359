package core

import (
	"fmt"

	"repro/internal/coordinator"
	"repro/internal/sim"
)

// roundSelector draws one round's active-client indices. Both
// implementations walk candidates in a uniformly random order, skip the
// ones that die (FailureRate) and stop once the aggregation goal is met —
// §3's over-provisioned selection with keep-alive failure detection. A
// client that dies keeps the heartbeat it was contacted with, until the
// monitor's timeout reports it; a live one is contacted and forgotten in
// the same instant, which clientID does when the round names it. Formatting
// the ID only then leaves one string per selected client per round.
type roundSelector interface {
	selectRound(p *Platform, rng *sim.RNG, goal int) []int
}

func newSelector(kind SelectorKind) (roundSelector, error) {
	switch kind {
	case SelectPerm:
		return permSelector{}, nil
	case SelectStream:
		return &streamSelector{}, nil
	default:
		return nil, fmt.Errorf("core: unknown selector %q", kind)
	}
}

// permSelector is the seed algorithm, kept draw-for-draw identical so
// fixed-seed paper Reports stay bit-identical (DESIGN.md's golden rule):
// a full rng.Perm over the population each round, walked until the goal's
// worth of live clients is found. O(population) time and allocation per
// round — fine at the paper's 2,800 clients, the reason SelectStream
// exists at a million.
type permSelector struct{}

func (permSelector) selectRound(p *Platform, rng *sim.RNG, goal int) []int {
	cfg := p.Cfg
	perm := rng.Perm(p.Pop.Len())
	var idx []int
	for _, i := range perm {
		if cfg.FailureRate > 0 && rng.Float64() < cfg.FailureRate {
			// The client dies before uploading; its heartbeat will expire
			// and the monitor reports it, while a standby takes its slot.
			p.beatFailed(i)
			continue
		}
		idx = append(idx, i)
		if len(idx) == goal {
			break
		}
	}
	return idx
}

// streamSelector is the large-scale selector: an incremental partial
// Fisher–Yates shuffle over a persistent index pool. Each draw swaps a
// uniformly chosen remaining element into the next slot, so a round costs
// O(contacted) = O(goal / (1 − FailureRate)) regardless of population
// size; the pool itself is one []int allocated on first use. Because the
// pool always contains every index exactly once, each round's selection
// is a uniform without-replacement sample no matter how previous rounds
// permuted it. Draw sequence differs from permSelector, so schedules (not
// distributions) differ for the same seed — see DESIGN.md.
type streamSelector struct {
	pool []int
}

func (s *streamSelector) selectRound(p *Platform, rng *sim.RNG, goal int) []int {
	if s.pool == nil {
		s.pool = make([]int, p.Pop.Len())
		for i := range s.pool {
			s.pool[i] = i
		}
	}
	cfg := p.Cfg
	total := len(s.pool)
	idx := make([]int, 0, goal)
	for j := 0; j < total && len(idx) < goal; j++ {
		r := j + rng.Intn(total-j)
		s.pool[j], s.pool[r] = s.pool[r], s.pool[j]
		i := s.pool[j]
		if cfg.FailureRate > 0 && rng.Float64() < cfg.FailureRate {
			p.beatFailed(i)
			continue
		}
		idx = append(idx, i)
	}
	return idx
}

// beatFailed records the heartbeat of contacted client i, which died
// before uploading.
func (p *Platform) beatFailed(i int) {
	p.Beats.Beat(coordinator.ClientID(p.Pop.ClientID(i)))
	p.FailuresDetected++
}

// clientID returns selected client i's wire ID and forgets its heartbeat —
// the beat of a live contact, and any beat left from a round it died in.
func (p *Platform) clientID(i int) string {
	id := p.Pop.ClientID(i)
	p.Beats.Forget(coordinator.ClientID(id))
	return id
}
