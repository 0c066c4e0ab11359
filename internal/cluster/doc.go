// Package cluster models the worker nodes of the testbed (§6: 64-core Intel
// Cascade Lake @ 2.8 GHz, 192 GB memory, 10 Gb NIC). Each node owns a
// multi-core CPU station (contention!), full-duplex NIC queues, a
// shared-memory object store, a per-node sockmap and SKMSG program, and
// memory accounting. CPU time is attributed per component so experiments can report
// the paper's cost breakdowns (gateway vs aggregator vs sidecar vs broker).
//
// Layer (DESIGN.md): component model under internal/systems — worker
// nodes (cores, memory, NICs, CPU accounting) every other component runs on.
package cluster
