package metrics

import "repro/internal/sim"

// Meter measures event arrival rate over a sliding window — the paper's
// k_{i,t} (§5.1); here it feeds only the load/arrival_rate_per_min gauge.
type Meter struct {
	eng    *sim.Engine
	window sim.Duration
	events []sim.Duration
}

// NewMeter builds a meter with the given window.
func NewMeter(eng *sim.Engine, window sim.Duration) *Meter {
	if window <= 0 {
		panic("metrics: meter window must be positive")
	}
	return &Meter{eng: eng, window: window}
}

// Mark records one event now.
func (m *Meter) Mark() {
	m.events = append(m.events, m.eng.Now())
	m.trim()
}

func (m *Meter) trim() {
	cut := m.eng.Now() - m.window
	i := 0
	for i < len(m.events) && m.events[i] < cut {
		i++
	}
	if i > 0 {
		m.events = append(m.events[:0], m.events[i:]...)
	}
}

// Rate returns events/sec over the trailing window.
func (m *Meter) Rate() float64 {
	m.trim()
	return float64(len(m.events)) / m.window.Seconds()
}
