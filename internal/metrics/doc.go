// Package metrics implements the metrics server of LIFL's control plane
// (Fig. 3): named sliding-window arrival-rate meters, the k_{i,t} input of
// the load balancer's residual-capacity formula (§5.1) and the source of
// the load/arrival_rate_per_min gauge.
//
// A meter holds only the events inside its window, so the server's
// storage is bounded by the arrival rate, never by run length
// (docs/MEMORY.md).
//
// Layer (DESIGN.md): component support under internal/core — arrival
// meters feeding the placement/planner inputs.
package metrics
