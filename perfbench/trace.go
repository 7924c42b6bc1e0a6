package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans of one op share its op id; parent links a call to the span that
// caused it (-1 for a root).
type span struct {
	name       string
	op         int
	id, parent int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for the traced run and writes them out at
// the end. A nil *tracer records nothing, so untraced code paths call the
// same methods at the cost of a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex // the daemon records job spans from many goroutines
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, id: len(t.spans), parent: parent, start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	// Self is Total minus the time covered by child spans.
	Self float64 `json:"self_s"`
}

// layerTimes maps a span name to its aggregate.
type layerTimes map[string]layerTime

// layers sums spans by name; a span's self time is its duration minus its
// children's durations (children of one span never overlap: each op calls
// its layers one after another).
func (t *tracer) layers() layerTimes {
	out := make(layerTimes)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		lt := out[s.name]
		lt.Count++
		lt.Total += d.Seconds()
		lt.Self += (d - child[i]).Seconds()
		out[s.name] = lt
	}
	return out
}

// mean is the mean duration in seconds of the spans named name (0 when
// there are none).
func (l layerTimes) mean(name string) float64 {
	return ratio(l[name].Total, float64(l[name].Count))
}

// writeTSV writes every span, one per line: id, parent, op, name, start
// and end in nanoseconds since the tracer's epoch.
func (t *tracer) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedNames returns the keys of m in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
