// Package sidecar implements the two sidecar designs the paper contrasts
// (§2.3, §4.3): the conventional container-based sidecar — an always-on
// process that intercepts every message in and out of its function, burning
// CPU even when idle and holding resident memory — and LIFL's eBPF-based
// sidecar, which runs as kernel code triggered by send() events and consumes
// exactly zero resources when idle. KeyPass is the eBPF sidecar: the one
// implementation of the SKMSG key pass that LIFL, SL-H and the async
// system share. Its metric collection is modelled only by its per-event
// CPU cost; no sample is stored (DESIGN.md, "Placement is load-blind").
//
// Layer (DESIGN.md): component model under internal/systems — the
// sidecar designs contrasted in Fig. 7.
package sidecar
