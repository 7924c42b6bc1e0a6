package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// exactCounts are the metrics a seed fixes exactly: simulated cycles and
// instruction, block, transcache and explorer counts over a fixed set of
// ops.
var exactCounts = map[string][]string{
	"fig12":    {"machine.sim_cycles_per_op", "machine.insts", "core.blocks"},
	"coldcode": {"machine.sim_cycles_per_op", "machine.insts", "core.blocks"},
	"daemon":   {"machine.sim_cycles_per_op", "machine.insts", "core.blocks", "transcache.hit_ratio", "transcache.stores"},
	"litmus":   {"explore.states", "explore.coverage_pct"},
}

func shortRun(t *testing.T, name string, seed int64, traced bool) *report {
	t.Helper()
	rep, _, err := execute(name, seed, 1, traced, machineInfo{Seed: seed})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed: %v", name, seed, rep.Failed, rep.Attempted, rep.Errors)
	}
	return rep
}

func metricNames(r *report) []string { return sortedNames(r.Metrics) }

// TestSeedFixesCounts runs each workload twice on one seed and once on
// another: the exact counts repeat, and the other seed generates other
// inputs under the same metric names.
func TestSeedFixesCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, name := range []string{"fig12", "coldcode", "daemon", "litmus"} {
		t.Run(name, func(t *testing.T) {
			a := shortRun(t, name, 1, true)
			b := shortRun(t, name, 1, true)
			for _, k := range exactCounts[name] {
				va, vb := a.Metrics[k].Value, b.Metrics[k].Value
				if va == 0 || va != vb {
					t.Errorf("%s: seed 1 gave %v then %v", k, va, vb)
				}
			}
			if !reflect.DeepEqual(a.Inputs, b.Inputs) {
				t.Errorf("seed 1 generated different inputs on the second run")
			}
			c := shortRun(t, name, 2, true)
			if !reflect.DeepEqual(metricNames(a), metricNames(c)) {
				t.Errorf("metric names differ between seeds: %v vs %v", metricNames(a), metricNames(c))
			}
			if reflect.DeepEqual(a.Inputs, c.Inputs) {
				t.Errorf("seeds 1 and 2 generated the same inputs %v", a.Inputs)
			}
		})
	}
}

// TestUntracedSimCycles checks that the printed sim_cycles_per_op of an
// untraced run repeats exactly for one seed.
func TestUntracedSimCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three workloads twice")
	}
	for _, name := range []string{"fig12", "coldcode", "daemon"} {
		a := shortRun(t, name, 3, false)
		b := shortRun(t, name, 3, false)
		va, vb := a.Metrics["sim_cycles_per_op"].Value, b.Metrics["sim_cycles_per_op"].Value
		if va == 0 || va != vb {
			t.Errorf("%s: sim_cycles_per_op %v then %v", name, va, vb)
		}
		for _, d := range endToEnd {
			if _, ok := a.Metrics[d.name]; !ok {
				t.Errorf("%s: untraced run lacks %s", name, d.name)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload
// lists in step with what the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1, 1); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
}

// TestBadWorkloadPrintsNoResult checks the failure path: a non-zero exit
// and no result line.
func TestBadWorkloadPrintsNoResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Fatalf("exit code 0 for an unknown workload")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("printed a result line: %s", out.String())
	}
}
