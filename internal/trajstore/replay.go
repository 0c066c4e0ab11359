package trajstore

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
)

// Crossing is a milestone first-crossing reconstructed from blocks — the
// same quantity the live run exports as Report.Milestones.
type Crossing struct {
	Target float64
	Round  int
	Acc    float64
	Sim    sim.Duration
	CPU    sim.Duration
}

// Summary is the post-hoc fold of a whole trajectory file: the scalar
// outcomes a live Report carries, re-derived from the stored rounds and
// the header's target/milestone levels alone.
type Summary struct {
	Meta   Meta
	Rounds int
	First  Record
	Last   Record
	// Crossings lists the first round at or above each header milestone
	// level, in ascending level order (levels never crossed are absent).
	Crossings []Crossing
	// Reached, TimeToTarget and CPUToTarget mirror the live Report: the
	// first stored round whose accuracy met Meta.Target.
	Reached      bool
	TimeToTarget sim.Duration
	CPUToTarget  sim.Duration
}

// Replay scans path end to end — verifying every block checksum — and
// folds it into the summary the live run reported. The records go through
// core's Recorder, configured from the header's target and milestones, so
// the crossings and the target verdict are derived exactly as the live run
// derived them. When each is non-nil it is invoked per record in write
// order; a non-nil return aborts the scan with that error.
func Replay(path string, each func(Record) error) (*Summary, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	s := &Summary{Meta: r.Meta()}
	book := core.NewRecorder(core.RunConfig{
		StreamOnly:     true,
		TargetAccuracy: s.Meta.Target,
		Milestones:     s.Meta.Milestones,
	}, nil)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if book.Report.RoundsRun == 0 {
			s.First = rec
		}
		s.Last = rec
		// Without a sink, Record cannot fail.
		_ = book.Record(core.RoundObservation{
			Acc: core.AccPoint{Round: rec.Round, Time: rec.Sim, CPUTime: rec.CPU, Accuracy: rec.Acc},
		})
		if each != nil {
			if err := each(rec); err != nil {
				return nil, err
			}
		}
	}
	rep := book.Report
	if rep.RoundsRun == 0 {
		return nil, fmt.Errorf("%w: no rounds stored", ErrFormat)
	}
	s.Rounds = rep.RoundsRun
	for _, h := range rep.Milestones {
		s.Crossings = append(s.Crossings, Crossing{Target: h.Target, Round: h.At.Round, Acc: h.At.Accuracy, Sim: h.At.Time, CPU: h.At.CPUTime})
	}
	s.Reached, s.TimeToTarget, s.CPUToTarget = rep.Reached, rep.TimeToTarget, rep.CPUToTarget
	return s, nil
}

// ErrRoundOutOfRange reports a ReplayAt round outside the stored range.
var ErrRoundOutOfRange = errors.New("trajstore: round outside stored range")

// ReplayAt returns the stored record for the given round number,
// scanning (and checksumming) from the start. The round numbering is the
// run's own: synchronous runs count from 1, injected ones from 0, async
// ones by version.
func ReplayAt(path string, round int) (Record, *Summary, error) {
	var hit Record
	found := false
	s, err := Replay(path, func(rec Record) error {
		if rec.Round == round {
			hit = rec
			found = true
		}
		return nil
	})
	if err != nil {
		return Record{}, nil, err
	}
	if !found {
		return Record{}, s, fmt.Errorf("%w: round %d not in [%d, %d]",
			ErrRoundOutOfRange, round, s.First.Round, s.Last.Round)
	}
	return hit, s, nil
}
