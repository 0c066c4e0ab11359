// Package cell is the multi-cell federation fabric: the sixth deployment
// shape, layered above whole systems. A Fabric owns K cells — independent
// LIFL (or baseline) instances, each with its own cluster, topology and
// gateway stack — and stitches them together with a deterministic locality
// router (clients are homed on cells by region weight, seed-stable) and a
// per-round cross-cell aggregation tier that folds the K cell-level
// aggregates into the global model through aggcore's eager pipeline with
// one fused tensor.ScaleAdd install per round. With K = 1 the tier
// vanishes and a fixed-seed run is byte-identical to the plain
// single-cluster run (TestFabricK1MatchesPlainRun).
//
// The fabric also carries the cell-outage path: cells heartbeat the
// fabric's control plane; a silent cell is declared dead one sweep past
// the timeout, and then — per the straggler-cell policy — either its
// partial round is discarded and its clients re-route to the surviving
// cells (quorum), or a replacement is restored from the cell's last
// durable checkpoint and the interrupted round replayed (wait-all).
// Because each cell steps through Platform.StepRound, cells retire
// closed rounds' control-plane records like any run (RetainRounds);
// the checkpoint store always pins its newest snapshot, so a wait-all
// restore works even when the outage lands past the retention window
// (TestFabricRestorePastRetentionWindow).
//
// The fabric is elastic (RunConfig.CellPlan): round-stamped
// join/drain/weight steps, grouped by round into versioned config pushes,
// reconfigure it live. The whole schedule is statically simulated before
// round 1 and rejected wholesale if any step is infeasible — the run then
// proceeds byte-identical to an unplanned run (last-known-good), with the
// reason in Detail.Plan. Validator and runtime share one pure
// reconfigure() function so acceptance cannot drift from application;
// PlanDiff exposes the same simulation as a dry run. Joins never re-home
// arrived clients (placement.ElasticRouter's epoch contract), drains bank
// the cell's accounting and re-home its clients across the survivors'
// routing weights, and determinism holds under a live plan: fixed seed ⇒
// byte-identical Reports and .traj files for any worker count, retention
// window, or permutation of an equivalent schedule
// (TestCellPlanByteIdenticalReports, internal/planprop).
//
// Layer (DESIGN.md): above internal/core, beside internal/harness — it
// drives per-cell core.Platforms round by round via Platform.StepRound,
// and harness sweeps dispatch RunConfigs with Cells set here. Cells are
// built and stepped concurrently (RunConfig.Workers, via internal/par):
// each cell owns a private engine, the cross-cell tier is the only
// barrier, and contributions fold in cell-index order, so the merged
// Report is byte-identical for any worker count
// (TestFabricWorkersByteIdentical).
//
// The global loop books each round through core's Recorder, the same one
// the plain sync and async loops use: the Report's per-round slices,
// milestone crossings and reached-target verdict, the core/accuracy
// gauge, and the OnRound → Trajectory fan-out whose sink error aborts the
// run. A K = 1 fabric's Det telemetry snapshot is therefore byte-identical
// to the plain run's too.
//
// With RunConfig.Telemetry set, the fabric publishes fabric/* metrics
// (rounds, folded shares, per-cell share gauges, outage and plan-push
// counters) and per-round envelope spans from its serial global loop,
// and hands each cell a prefixed Sub("cell/<id>/") registry view —
// shared atomic store, disjoint names, no span log, so parallel cell
// stepping stays race-free (internal/obs documents the contract).
package cell
