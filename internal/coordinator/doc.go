// Package coordinator implements the cluster-wide control-plane pieces that
// sit between the FL job designer and the serverless control plane (Fig. 3):
// keep-alive failure detection for clients (§3) and the opportunistic
// aggregator-reuse policy of §5.3. Client selection itself lives in
// internal/core's selectors, which beat this package's heartbeats and
// over-provision to cover the clients it declares dead.
//
// The same heartbeat machinery monitors whole cells in the multi-cell
// fabric (internal/cell): cells beat the fabric's control plane every
// HeartbeatPeriod, and Deadline lets the fabric schedule its detection
// sweeps exactly where a silence could first matter.
//
// Layer (DESIGN.md): component model under internal/systems — the
// control plane: client and cell heartbeats, warm-aggregator reuse
// (§5.3).
package coordinator
