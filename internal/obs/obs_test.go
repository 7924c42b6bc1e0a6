package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers get-or-create and the metric write
// paths from many goroutines; run under -race this is the registry's
// data-race gate.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared.counter").Inc()
				r.Gauge("shared.gauge").Add(1)
				r.Histogram("shared.hist", DurationBuckets).Observe(uint64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["shared.counter"]; got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := s.Gauges["shared.gauge"]; got != goroutines*iters {
		t.Errorf("gauge = %d, want %d", got, goroutines*iters)
	}
	if got := s.Histograms["shared.hist"].Count; got != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", got, goroutines*iters)
	}
}

func TestNilSafety(t *testing.T) {
	var s *Scope
	// None of these may panic; all reads come back zero.
	s.Counter("x").Inc()
	s.Gauge("x").Set(7)
	s.Histogram("x", SizeBuckets).Observe(1)
	s.Event("phase", "", 0, 0, 0)
	if d := s.Span("phase", "", 0, 0, 0, s.Begin()); d != 0 {
		t.Errorf("nil scope Span returned %d, want 0", d)
	}
	if s.Child("c") != nil {
		t.Error("nil scope Child should be nil")
	}
	snap := s.Snapshot()
	if len(snap.Counters) != 0 || snap.Spans.Total != 0 {
		t.Errorf("nil scope snapshot not empty: %v", snap)
	}
	var tr *Tracer
	tr.Append(Span{Phase: "p"})
	if got := tr.Spans(); got != nil {
		t.Errorf("nil tracer Spans = %v, want nil", got)
	}
}

// TestHistogramBuckets pins the bucket-selection rule: a sample lands in
// the first bucket whose bound is >= the sample; past the last bound it
// lands in the overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]uint64{10, 100, 1000})
	cases := []struct {
		v    uint64
		slot int
	}{
		{0, 0}, {9, 0}, {10, 0}, // at-or-below first bound
		{11, 1}, {100, 1}, // exact bound is inclusive
		{101, 2}, {1000, 2},
		{1001, 3}, {^uint64(0), 3}, // overflow bucket
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	snap := h.snapshot()
	want := []uint64{3, 2, 2, 2}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 9 {
		t.Errorf("count = %d, want 9", snap.Count)
	}
	if len(snap.Counts) != len(snap.Bounds)+1 {
		t.Errorf("len(counts) = %d, want bounds+1 = %d", len(snap.Counts), len(snap.Bounds)+1)
	}
}

func TestScopePrefix(t *testing.T) {
	root := NewScope("")
	child := root.Child("litmus")
	grand := child.Child("cache")
	grand.Counter("hits").Add(3)
	child.Counter("shards").Inc()
	root.Counter("top").Inc()
	s := root.Snapshot()
	for _, name := range []string{"litmus.cache.hits", "litmus.shards", "top"} {
		if _, ok := s.Counters[name]; !ok {
			t.Errorf("missing counter %q; have %v", name, s.MetricNames())
		}
	}
	if s.Counters["litmus.cache.hits"] != 3 {
		t.Errorf("litmus.cache.hits = %d, want 3", s.Counters["litmus.cache.hits"])
	}
}

func TestRenderFormats(t *testing.T) {
	sc := NewScope("")
	sc.Counter("core.blocks").Add(42)
	sc.Gauge("machine.insts").Set(-1)
	sc.Histogram("core.translate_ns", DurationBuckets).Observe(5_000)
	sc.Event("frontend.decode", "", 0, 0x401000, 0)
	sn := sc.Snapshot()

	var jsonBuf bytes.Buffer
	if err := Dump(&jsonBuf, sn, FormatJSON); err != nil {
		t.Fatalf("json dump: %v", err)
	}
	if err := ValidateSnapshotJSON(jsonBuf.Bytes()); err != nil {
		t.Errorf("round-trip validation failed: %v\n%s", err, jsonBuf.String())
	}

	var promBuf bytes.Buffer
	if err := Dump(&promBuf, sn, FormatProm); err != nil {
		t.Fatalf("prom dump: %v", err)
	}
	for _, want := range []string{"core_blocks 42", "machine_insts -1", "core_translate_ns_count 1", `spans_total{phase="frontend.decode"} 1`} {
		if !strings.Contains(promBuf.String(), want) {
			t.Errorf("prom output missing %q:\n%s", want, promBuf.String())
		}
	}

	var textBuf bytes.Buffer
	if err := Dump(&textBuf, sn, FormatText); err != nil {
		t.Fatalf("text dump: %v", err)
	}
	if !strings.Contains(textBuf.String(), "core.blocks") {
		t.Errorf("text output missing core.blocks:\n%s", textBuf.String())
	}

	if err := Dump(&bytes.Buffer{}, sn, "xml"); err == nil {
		t.Error("Dump accepted unknown format")
	}
	if ValidFormat("xml") || !ValidFormat("json") {
		t.Error("ValidFormat wrong")
	}
}

func TestValidateSnapshotJSONRejects(t *testing.T) {
	bad := []struct {
		name string
		doc  string
	}{
		{"not json", "nope"},
		{"missing sections", `{"counters":{}}`},
		{"negative counter", `{"counters":{"x":-1},"gauges":{},"histograms":{},"spans":{"total":0,"dropped":0,"by_phase":{}}}`},
		{"bad histogram arity", `{"counters":{},"gauges":{},"histograms":{"h":{"bounds":[1,2],"counts":[0,0],"count":0,"sum":0}},"spans":{"total":0,"dropped":0,"by_phase":{}}}`},
		{"phase sum mismatch", `{"counters":{},"gauges":{},"histograms":{},"spans":{"total":5,"dropped":0,"by_phase":{"a":1}}}`},
		{"unknown field", `{"counters":{},"gauges":{},"histograms":{},"spans":{"total":0,"dropped":0,"by_phase":{}},"extra":1}`},
	}
	for _, c := range bad {
		if err := ValidateSnapshotJSON([]byte(c.doc)); err == nil {
			t.Errorf("%s: validation accepted bad document", c.name)
		}
	}
}
