// Package systems assembles the complete FL systems the paper evaluates
// against each other (§6): LIFL (with its four orchestration features
// individually switchable for the Fig. 8 ablation), the serverful baseline
// SF (Fig. 2(a), always-on hierarchy, direct gRPC), and the serverless
// baseline SL (Fig. 2(b), Knative-style: container sidecars, message
// broker, threshold autoscaling, least-connection load balancing). SL-H —
// the Fig. 8 baseline with LIFL's data plane but a conventional control
// plane — is the LIFL assembly with every flag off.
//
// All systems implement Service and run the same synchronous FedAvg round
// protocol: broadcast the global model, clients train and upload, the
// hierarchy aggregates, the top aggregator installs the new global model
// and evaluates it.
//
// Rounds also close: Service.RetireRound(last) evicts every control-plane
// record a system holds for rounds <= last — round-named sockmap entries
// and gateway routes (LIFL/SL-H), broker topics and sidecar bindings (SL),
// superseded checkpoints, and the retained round state itself. SF's static
// hierarchy names nothing per round, and the async system keeps nothing
// per version, so their RetireRound is a no-op. LIFL, SL-H and the async
// system pass every shm key through one sidecar.KeyPass; placement is
// load-blind (DESIGN.md). LIFL/SL-H and SL lay each round's
// aggregators out once, when the round is planned, in a shared slot table
// (slots.go); everything after — binding, dispatch, failover, retirement —
// indexes it. Retirement is bookkeeping, never
// schedule: Reports are byte-identical for any retention window (see
// docs/MEMORY.md for the full lifecycle).
//
// With Config.Obs set (internal/obs, wired from core's RunConfig.
// Telemetry), the control planes count their churn: ctrl/* creation
// counters are deterministic; retirement/eviction counters are Volatile
// (their values depend on the retention window) and appear only in
// wall-opt-in snapshots. Finalize publishes the eBPF data-plane gauges
// (skmsg runs, redirects, drops, sockmap size) and load/* planner
// inputs.
//
// Layer (DESIGN.md): wires the component models into whole systems —
// the only package that knows what LIFL or a baseline is. core drives these
// assemblies; nothing below imports this package.
package systems
