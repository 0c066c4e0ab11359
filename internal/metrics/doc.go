// Package metrics implements the arrival-rate meter of LIFL's metrics
// server (Fig. 3): a sliding-window event counter, the source of the
// load/arrival_rate_per_min gauge. The §5.1 residual-capacity formula
// reads a per-node rate k_{i,t} from the same kind of meter in the paper;
// here placement is load-blind (k_{i,t} = 0, DESIGN.md), so LIFL keeps one
// cluster-wide meter and no per-node ones.
//
// A meter holds only the events inside its window, so its storage is
// bounded by the arrival rate, never by run length (docs/MEMORY.md).
//
// Layer (DESIGN.md): component support under internal/core — the arrival
// meter behind the load telemetry.
package metrics
