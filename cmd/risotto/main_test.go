package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// runScoped executes the histogram kernel under the risotto variant with
// an instrumented runtime, the same configuration `risotto -kernel
// histogram -metrics json` uses.
func runScoped(t *testing.T) (*core.Runtime, *obs.Scope) {
	t.Helper()
	scope := obs.NewScope("")
	k, err := workloads.KernelByName("histogram")
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Build(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := b.BuildGuest("main")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(img, core.WithVariant(core.VariantRisotto), core.WithObs(scope))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return rt, scope
}

// TestMetricNamesGolden pins the shape of the snapshot — which metrics an
// instrumented run registers — so a renamed or dropped metric fails
// loudly. Re-bless with `go test ./cmd/risotto -run Golden -update`.
func TestMetricNamesGolden(t *testing.T) {
	_, scope := runScoped(t)
	got := strings.Join(scope.Snapshot().MetricNames(), "\n") + "\n"

	golden := filepath.Join("testdata", "metric_names.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to bless)", err)
	}
	if got != string(want) {
		t.Errorf("metric shape changed (re-bless with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestStatsFacadeMatchesRegistry is the differential check behind the
// Stats migration: the typed façade must read exactly the registry
// counters the pipeline incremented.
func TestStatsFacadeMatchesRegistry(t *testing.T) {
	rt, scope := runScoped(t)
	st := rt.Stats()
	snap := scope.Snapshot()
	for _, c := range []struct {
		name   string
		facade uint64
	}{
		{"core.blocks", st.Blocks},
		{"core.guest_bytes", st.GuestBytes},
		{"core.host_insts", st.HostInsts},
		{"core.fences.dmb_full", st.DMBFull},
		{"core.fences.dmb_load", st.DMBLoad},
		{"core.fences.dmb_store", st.DMBStore},
		{"core.atomics.casal", st.Casal},
		{"core.atomics.excl_loop", st.ExclLoop},
		{"core.helper_calls", st.HelperCalls},
		{"core.host_calls", st.HostCalls},
		{"core.syscalls", st.Syscalls},
		{"core.chain_patches", st.ChainPatches},
		{"core.cache_flushes", st.CacheFlushes},
		{"core.selfheal.quarantines", st.Quarantines},
		{"core.selfheal.demotions", st.Demotions},
		{"core.selfheal.divergences", st.Divergences},
		{"core.selfheal.heals", st.Heals},
		{"core.selfheal.selfchecks", st.SelfChecks},
		{"core.selfheal.interp_blocks", st.InterpBlocks},
		{"core.selfheal.promotions", st.Promotions},
		{"core.superblock.blocks", st.Superblocks},
		{"tcg.fence_merges_cross_block", st.CrossBlockFenceMerges},
	} {
		if got := snap.Counter(c.name); got != c.facade {
			t.Errorf("%s: registry %d, Stats façade %d", c.name, got, c.facade)
		}
	}
	if st.Blocks == 0 {
		t.Error("no blocks translated — instrumented run did nothing")
	}
}

// TestPipelineSpansRecorded checks the per-stage trace: a real run must
// record decode and emission spans.
func TestPipelineSpansRecorded(t *testing.T) {
	_, scope := runScoped(t)
	spans := scope.Snapshot().Spans
	for _, phase := range []string{"frontend.decode", "tcg.opt", "backend.emit"} {
		if spans.ByPhase[phase] == 0 {
			t.Errorf("no %q spans recorded (total %d)", phase, spans.Total)
		}
	}
}

// TestMetricsJSONValidates renders the snapshot the way `-metrics json`
// does and runs it through the schema check obsvalidate applies.
func TestMetricsJSONValidates(t *testing.T) {
	_, scope := runScoped(t)
	var buf bytes.Buffer
	if err := obs.Dump(&buf, scope.Snapshot(), obs.FormatJSON); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateSnapshotJSON(buf.Bytes()); err != nil {
		t.Fatalf("snapshot JSON fails validation: %v\n%s", err, buf.String())
	}
}
