package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
)

// digest is the run's correctness fingerprint: FNV-64 over the Report's
// simulated outcomes and trained model bits, then the .traj bytes and the
// Det snapshot bytes (either may be nil). Wall-clock fields are excluded,
// so a fixed seed gives one digest however fast the run was.
func digest(rep *core.Report, traj, snapshot []byte) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(rep.RoundsRun))
	put(uint64(rep.Elapsed))
	put(uint64(rep.CPUTotal))
	put(uint64(rep.TimeToTarget))
	if rep.Reached {
		put(1)
	} else {
		put(0)
	}
	put(uint64(len(rep.Milestones)))
	for _, m := range rep.Milestones {
		put(math.Float64bits(m.Target))
		put(uint64(m.At.Round))
		put(uint64(m.At.Time))
		put(uint64(m.At.CPUTime))
		put(math.Float64bits(m.At.Accuracy))
	}
	put(uint64(rep.FailuresDetected))
	put(uint64(rep.UpdatesDiscarded))
	put(math.Float64bits(rep.MeanStaleness))
	put(uint64(rep.FinalGlobal.Len()))
	for _, x := range rep.FinalGlobal.Data {
		binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(x))
		h.Write(buf[:4])
	}
	put(uint64(len(traj)))
	h.Write(traj)
	put(uint64(len(snapshot)))
	h.Write(snapshot)
	return h.Sum64()
}

//go:embed testdata/digests.json
var pinnedJSON []byte

// pinnedDigests maps each workload to its full-length seed-1 digest.
func pinnedDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return m, nil
}

// pinnedSeed is the seed whose digests are pinned.
const pinnedSeed = 1

func hexDigest(d uint64) string { return fmt.Sprintf("%016x", d) }
