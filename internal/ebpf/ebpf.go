package ebpf

import "repro/internal/shm"

// Message is the unit passed over an SKMSG channel. In LIFL's intra-node
// path the payload is only the 16-byte shm object key.
type Message struct {
	SrcID  string
	DstID  string
	ShmKey shm.Key
}

// SockMap is BPF_MAP_TYPE_SOCKMAP: component ID → the registered socket's
// delivery (Fig. 12: "a1's id → a1's sock fd").
type SockMap struct {
	socks map[string]func(Message)
}

// NewSockMap creates an empty sockmap.
func NewSockMap() *SockMap {
	return &SockMap{socks: make(map[string]func(Message))}
}

// Register installs id's socket: deliver is invoked (in virtual time by the
// caller's scheduling) when a message reaches it.
func (sm *SockMap) Register(id string, deliver func(Message)) { sm.socks[id] = deliver }

// Remove deletes the entry for key.
func (sm *SockMap) Remove(key string) { delete(sm.socks, key) }

// Lookup returns the delivery registered under key.
func (sm *SockMap) Lookup(key string) (func(Message), bool) {
	deliver, ok := sm.socks[key]
	return deliver, ok
}

// Len returns the number of registered entries.
func (sm *SockMap) Len() int { return len(sm.socks) }

// SKMSGProgram models the eBPF program LIFL attaches at each aggregator's
// socket SKMSG hook: on every send() event it redirects the message to the
// destination socket found in the sockmap.
type SKMSGProgram struct {
	sockMap *SockMap

	// Runs counts invocations — by construction the only times the sidecar
	// consumes CPU (event-driven execution).
	Runs uint64
	// Redirects counts successful sockmap redirections.
	Redirects uint64
	// Drops counts messages with no destination socket.
	Drops uint64
}

// NewSKMSGProgram attaches a program over the given sockmap.
func NewSKMSGProgram(sm *SockMap) *SKMSGProgram {
	return &SKMSGProgram{sockMap: sm}
}

// Run executes the program for one send() event: it looks up the
// destination and returns its delivery, or false when the destination has
// no socket yet (the message is dropped; the data plane parks the update
// until its aggregator binds). The caller charges the CPU cycles and
// schedules the delivery in virtual time.
func (p *SKMSGProgram) Run(msg Message) (func(Message), bool) {
	p.Runs++
	deliver, ok := p.sockMap.Lookup(msg.DstID)
	if !ok {
		p.Drops++
		return nil, false
	}
	p.Redirects++
	return deliver, true
}
