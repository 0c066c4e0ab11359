// Package sim provides a deterministic discrete-event simulation kernel.
//
// All LIFL experiments run on virtual time: components schedule callbacks on
// an Engine, contend for multi-core CPU Stations and bandwidth Queues, and
// the engine executes events in strict (time, sequence) order. Determinism
// comes from the total event order plus seeded randomness (see RNG); running
// the same experiment twice yields byte-identical results.
//
// The engine is allocation-lean by design: a Fig. 9 full-workload run
// schedules millions of events, so the pending set is a value-based 4-ary
// min-heap ([]event, no per-event box, no container/heap interface
// conversions). Popped slots are cleared and the backing array is retained
// as a free list, so steady-state scheduling performs zero heap allocations
// beyond the caller's own closure — and AtSpan removes even that for the
// dominant (start, end)-completion shape.
//
// A Timer is an event that can be taken back. Bound once to its callback
// and kept by value in its owner, it is re-armed (Reset) and cancelled
// (Stop) without allocating: the heap records the queued firing's index in
// the Timer, so Stop removes it in O(log n) instead of leaving a no-op to
// run. Cancelling never reorders what remains — every other event keeps
// its (time, sequence) key.
//
// Layer (DESIGN.md): leaf — the deterministic discrete-event kernel
// (engine/station/queue/rng) everything above runs on; see the event-engine
// invariants in DESIGN.md.
package sim
