package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed batch of calls into a layer. Times are host ns
// since the tracer started; parent is -1 for a root.
type span struct {
	name       string
	parent     int32
	start, end int64
}

// tracer records nested spans in memory. Spans open and close in stack
// order, so every child lies inside its parent by construction.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int32
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: int64(time.Since(t.origin)), end: -1})
	t.open = append(t.open, int32(len(t.spans)-1))
}

// end closes the innermost open span.
func (t *tracer) end() {
	n := len(t.open) - 1
	t.spans[t.open[n]].end = int64(time.Since(t.origin))
	t.open = t.open[:n]
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count       int64
	total, self int64 // ns; self excludes time covered by child spans
}

// stats aggregates closed spans by name.
func (t *tracer) stats() map[string]*spanStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*spanStat)
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStat{}
			out[s.name] = st
		}
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - child[i]
	}
	return out
}

// writeSummary prints one line per span name: count, total and self ms.
func (t *tracer) writeSummary(w io.Writer) {
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-20s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "%-20s %10d %12.3f %12.3f\n", n, s.count, float64(s.total)/1e6, float64(s.self)/1e6)
	}
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, s := range t.spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n", i, s.parent, s.name, s.start, s.end)
	}
	return bw.Flush()
}
