package simnet

import (
	"fmt"
	"slices"
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
// tcpdump. NewTracer installs it on the network's packet hook. Entries are
// kept in order of the instant the packet reached its node: the hook hears of
// a packet reaching a switch only when its pipeline stage ends (StagedNode),
// possibly after deliveries elsewhere in between, so an entry is placed
// behind every entry of an instant up to its own.
type Tracer struct {
	entries []TraceEntry
	// Limit caps the number of stored entries (0 = unlimited): the first
	// Limit deliveries are kept.
	Limit int
}

// NewTracer creates a tracer and attaches it to the network's packet hook.
func NewTracer(n *Network) *Tracer {
	t := &Tracer{}
	n.PktTrace = t.record
	return t
}

func (t *Tracer) record(at sim.Time, where string, pkt *Packet) {
	i := len(t.entries)
	for i > 0 && t.entries[i-1].At > at {
		i--
	}
	if t.Limit > 0 && i >= t.Limit {
		return
	}
	t.entries = slices.Insert(t.entries, i, TraceEntry{
		At:   at,
		Node: where,
		Kind: pkt.Kind,
		Src:  fmt.Sprintf("%s:%d", pkt.SrcIP, pkt.SrcPort),
		Dst:  fmt.Sprintf("%s:%d", pkt.DstIP, pkt.DstPort),
		Size: pkt.Size,
	})
	if t.Limit > 0 && len(t.entries) > t.Limit {
		t.entries = t.entries[:t.Limit]
	}
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
