// Package ebpf simulates the kernel eBPF machinery LIFL relies on (§4.3,
// §4.4, Appendix A): the special BPF_MAP_TYPE_SOCKMAP holding the
// registered sockets, and the SKMSG program attached to socket send()
// hooks. The functional semantics mirror the kernel — key-based socket
// redirection, strictly event-driven execution (a program runs only when a
// send() event fires, so idle cost is zero) — while the kernel boundary
// itself is simulated. The sidecar's in-kernel metric collection is
// modelled only by its per-event CPU cost, which internal/sidecar charges;
// nothing here stores a sample.
//
// Sockmap entries are per logical aggregator name; the systems layer
// removes them when the name's round retires (docs/MEMORY.md).
//
// Layer (DESIGN.md): component model under internal/systems — the
// SockMap/SkMsg kernel-bypass substrate (§4.3).
package ebpf
