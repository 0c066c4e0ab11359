package coordinator

import (
	"sort"

	"repro/internal/aggcore"
	"repro/internal/sim"
)

// ClientID names an FL client.
type ClientID string

// Heartbeats tracks client keep-alives; a client whose last beat is older
// than the timeout is declared failed and its slot is covered by the
// over-provisioned population.
type Heartbeats struct {
	eng     *sim.Engine
	timeout sim.Duration
	last    map[ClientID]sim.Duration
}

// NewHeartbeats builds a tracker with the given timeout.
func NewHeartbeats(eng *sim.Engine, timeout sim.Duration) *Heartbeats {
	return &Heartbeats{eng: eng, timeout: timeout, last: make(map[ClientID]sim.Duration)}
}

// Beat records a keep-alive from c now.
func (h *Heartbeats) Beat(c ClientID) { h.last[c] = h.eng.Now() }

// Failed returns clients whose beats have expired, sorted.
func (h *Heartbeats) Failed() []ClientID {
	now := h.eng.Now()
	var out []ClientID
	for c, t := range h.last {
		if now-t > h.timeout {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Forget drops a client (round ended or reassigned).
func (h *Heartbeats) Forget(c ClientID) { delete(h.last, c) }

// Deadline returns the instant c will be declared failed absent further
// beats (lastBeat + timeout), and whether c has an outstanding beat at
// all. The cell fabric uses it to schedule its detection sweeps instead of
// polling every period from time zero: cells are few and beat rarely, so
// the control plane wakes exactly when a silence could first matter.
func (h *Heartbeats) Deadline(c ClientID) (sim.Duration, bool) {
	t, ok := h.last[c]
	return t + h.timeout, ok
}

// Pending returns how many clients have an outstanding beat — contacted
// but neither forgotten (delivered their update) nor yet swept by Failed.
func (h *Heartbeats) Pending() int { return len(h.last) }

// PickIdle implements §5.3's reuse choice: prefer converting a warm, idle
// aggregator that has completed its task over cold-starting a new instance
// for a higher level. It returns the first aggregator (in slice order) that
// has completed its aggregation task and is idle, or nil. The paper picks
// "a leaf aggregator that has already completed its aggregation task and
// is idle" for middle duty, and "the first middle aggregator that
// completes its local aggregation" for top duty — callers pass the
// candidate set accordingly.
func PickIdle(cands []*aggcore.Aggregator) *aggcore.Aggregator {
	for _, a := range cands {
		if a != nil && a.Idle() {
			return a
		}
	}
	return nil
}
