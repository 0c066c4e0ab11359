// Package runtime models the serverless function runtime: sandboxed
// aggregator instances with cold/warm start, a per-node warm pool with
// keep-alive reclamation, and the LIFL agent's lifecycle management
// (creation, termination, §3). LIFL's aggregators use homogenized runtimes
// — same code and libraries regardless of role — which is what makes
// opportunistic role conversion (§5.3) free of state synchronization.
//
// Keep-alive expiry is event-driven: each sandbox owns one sim.Timer,
// bound once to its expiry check. SetIdle re-arms it, and it is stopped
// only when the check can never pass again — a SetIdle at a later instant,
// or termination — so reclamation happens at exactly the instants one
// check per idle transition would give, without leaving stale checks
// queued in the engine.
//
// Layer (DESIGN.md): component model under internal/systems — sandboxes:
// cold starts, keep-alive, reaping.
package runtime
