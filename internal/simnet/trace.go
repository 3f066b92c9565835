package simnet

import (
	"fmt"
	"strings"

	"transparentedge/internal/sim"
)

// TraceEntry is one recorded packet delivery.
type TraceEntry struct {
	At   sim.Time
	Node string // receiving node
	Kind PacketKind
	Src  string
	Dst  string
	Size Bytes
}

func (e TraceEntry) String() string {
	return fmt.Sprintf("%12v  %-12s %-8s %s -> %s (%dB)",
		e.At, e.Node, e.Kind, e.Src, e.Dst, e.Size)
}

// Tracer records packet deliveries across the network — the simulation's
// tcpdump. NewTracer installs it on the network's packet hook.
type Tracer struct {
	net     *Network
	entries []TraceEntry
	// Limit caps the number of stored entries (0 = unlimited).
	Limit int
}

// NewTracer creates a tracer and attaches it to the network's packet hook.
func NewTracer(n *Network) *Tracer {
	t := &Tracer{net: n}
	n.PktTrace = t.record
	return t
}

func (t *Tracer) record(where string, pkt *Packet) {
	if t.Limit > 0 && len(t.entries) >= t.Limit {
		return
	}
	t.entries = append(t.entries, TraceEntry{
		At:   t.net.K.Now(),
		Node: where,
		Kind: pkt.Kind,
		Src:  fmt.Sprintf("%s:%d", pkt.SrcIP, pkt.SrcPort),
		Dst:  fmt.Sprintf("%s:%d", pkt.DstIP, pkt.DstPort),
		Size: pkt.Size,
	})
}

// String renders the trace, one delivery per line.
func (t *Tracer) String() string {
	var b strings.Builder
	for _, e := range t.entries {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
