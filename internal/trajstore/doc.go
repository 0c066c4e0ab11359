// Package trajstore is the bounded-memory streaming trajectory store: an
// append-only columnar block file for RoundObservation streams, built so
// a million-round run keeps a flat RSS and a complete, replayable
// history at once.
//
// Rounds accumulate into a fixed-size in-memory block laid out
// column-per-field (round, accuracy bits, sim-ns, cpu-ns, folded and
// discarded update counts, per-cell shares, and — opt-in — wall-ns).
// A full block is sealed: integer columns are delta-encoded and zigzag
// varinted, float columns xor-previous encoded (Gorilla-style), the
// payload checksummed with CRC-32C and appended to the run file with one
// sequential write. The sealed block's heap is reused for the next
// block, and every few megabytes the writer syncs and issues an
// fadvise-DONTNEED so the page cache stays as flat as the heap.
//
// Hot-path invariants (asserted by tests):
//
//   - Append performs zero steady-state allocations; only block seals
//     touch the allocator, and only until the scratch buffers reach
//     their stable size.
//   - Resident memory is a function of Options.BlockRounds, never of
//     run length.
//   - A fixed seed yields a byte-identical file across serial, -parallel
//     and any Workers count (the wall column, the one nondeterministic
//     field, is off unless Options.CaptureWall).
//   - Blocks are self-contained (delta baselines reset per block), so a
//     flipped bit is confined to — and detected in — one block.
//
// Reader streams records back in write order, verifying every checksum;
// Replay folds a whole file into the same milestone crossings and
// reached-target verdict the live run reported. It re-derives them
// through core's Recorder — the code that derived them live — configured
// from the file header's target and milestone levels.
package trajstore
