package main

import (
	"os"
	"time"

	"transparentedge/internal/obs"
)

// spanLog records the harness's own host-time spans: one around every call
// the harness makes into a layer. It reuses obs.Span (Start/End are host
// time since process start here, not virtual time) so the file is written by
// the repo's existing Chrome trace-event exporter. Spans are kept in memory
// and written once, at exit.
type spanLog struct {
	spans []obs.Span
	next  uint64
	// rep is the enclosing rep's span: its ID is the Root every span of the
	// rep shares (the exporter gives each root its own track).
	rep uint64
}

// beginRep opens a rep-level span and makes it the parent of the spans
// recorded until end is called.
func (l *spanLog) beginRep(name, detail string) (end func()) {
	l.next++
	id := l.next
	l.rep = id
	start := time.Since(processStart)
	return func() {
		l.spans = append(l.spans, obs.Span{
			ID: id, Root: id, Name: name, Cat: "rep", Detail: detail,
			Start: start, End: time.Since(processStart),
		})
		l.rep = 0
	}
}

// span times fn as a child of the current rep (or as its own root outside
// one) and returns its wall time.
func (l *spanLog) span(name, layer string, fn func()) time.Duration {
	l.next++
	id := l.next
	start := time.Since(processStart)
	fn()
	end := time.Since(processStart)
	s := obs.Span{ID: id, Parent: l.rep, Root: l.rep, Name: name, Cat: layer, Start: start, End: end}
	if s.Root == 0 {
		s.Root = id
	}
	l.spans = append(l.spans, s)
	return end - start
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(f, l.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
