package campaign

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/journal"
	"repro/internal/litmusgen"
)

// readResults parses a campaign results stream: the header line followed
// by records. A torn final line (campaign killed mid-write) is dropped;
// any other malformed line is an error.
func readResults(r io.Reader) (journal.Header, []Record, error) {
	var recs []Record
	hdr, _, err := journal.Read(r, FormatV1, func(rec Record) { recs = append(recs, rec) })
	return hdr, recs, err
}

// smokeConfig is a small deterministic campaign used by several tests:
// every shape family at both levels, a couple hundred tests total.
func smokeConfig() Config {
	return Config{
		Gen: litmusgen.Config{
			Seed:        1,
			MaxThreads:  2,
			MaxPerShape: 12,
		},
		Workers:      4,
		OpcheckSeeds: 2,
	}
}

// TestCampaignSmoke runs a small seeded campaign end to end and demands
// zero verdict failures: the verified mapping chain and the operational
// machine must agree with the models on every generated test.
func TestCampaignSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	sum, err := RunFile(smokeConfig(), path, false)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tests == 0 {
		t.Fatal("campaign produced no tests")
	}
	if sum.Fail != 0 {
		for _, f := range sum.Failures {
			t.Errorf("FAIL %s (%s): %s", f.Name, f.Level, f.Detail)
		}
		t.Fatalf("%d/%d verdicts failed", sum.Fail, sum.Tests)
	}
	if sum.Pass == 0 {
		t.Fatal("no passing verdicts — every test skipped?")
	}
	t.Logf("tests=%d pass=%d skip=%d checksRun=%d checksSkipped=%d (%.0f tests/s)",
		sum.Tests, sum.Pass, sum.Skip, sum.ChecksRun, sum.ChecksSkipped, sum.TestsPerSec)
}

// recordKey reduces a record to its comparable identity (everything that
// matters for the merged-verdict-set comparison).
func recordKey(r Record) string {
	checks := make([]string, 0, len(r.Checks))
	for k, v := range r.Checks {
		checks = append(checks, k+"="+v)
	}
	sort.Strings(checks)
	return fmt.Sprintf("%d|%s|%s|%s|%v", r.Idx, r.Name, r.FP, r.Verdict, checks)
}

// TestCampaignCrashResume kills a campaign mid-stream via the StopAfter
// hook, resumes from the JSONL file, and asserts the merged verdict set
// is identical to an uninterrupted run — the resume contract.
func TestCampaignCrashResume(t *testing.T) {
	dir := t.TempDir()
	cfg := smokeConfig()

	full := filepath.Join(dir, "full.jsonl")
	sumFull, err := RunFile(cfg, full, false)
	if err != nil {
		t.Fatal(err)
	}

	part := filepath.Join(dir, "part.jsonl")
	cfgStop := cfg
	cfgStop.StopAfter = sumFull.Tests / 3
	sumPart, err := RunFile(cfgStop, part, false)
	if err != nil {
		t.Fatal(err)
	}
	if !sumPart.Stopped || sumPart.Tests >= sumFull.Tests {
		t.Fatalf("StopAfter did not truncate: stopped=%v tests=%d/%d",
			sumPart.Stopped, sumPart.Tests, sumFull.Tests)
	}

	sumRes, err := RunFile(cfg, part, true)
	if err != nil {
		t.Fatal(err)
	}
	if sumRes.Resumed != sumPart.Tests {
		t.Errorf("resume skipped %d tests, want %d already-done", sumRes.Resumed, sumPart.Tests)
	}
	if got, want := sumRes.Tests+sumRes.Resumed, sumFull.Tests; got != want {
		t.Errorf("resumed campaign covered %d tests, want %d", got, want)
	}

	read := func(path string) map[string]bool {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		hdr, recs, err := readResults(f)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.ConfigHash != cfg.Hash() {
			t.Fatalf("header hash %s, want %s", hdr.ConfigHash, cfg.Hash())
		}
		set := make(map[string]bool, len(recs))
		for _, r := range recs {
			if set[recordKey(r)] {
				t.Fatalf("duplicate record idx %d in %s", r.Idx, path)
			}
			set[recordKey(r)] = true
		}
		return set
	}
	fullSet, mergedSet := read(full), read(part)
	if len(fullSet) != len(mergedSet) {
		t.Fatalf("merged run has %d records, uninterrupted %d", len(mergedSet), len(fullSet))
	}
	for k := range fullSet {
		if !mergedSet[k] {
			t.Errorf("record missing from merged run: %s", k)
		}
	}
}

// TestCampaignResumeAfterTornLine models the harsher kill: the process
// died mid-write, so the file ends in a torn half record with no trailing
// newline. Resume must drop the fragment (not weld the first appended
// record onto it) and still converge to the uninterrupted record set.
func TestCampaignResumeAfterTornLine(t *testing.T) {
	dir := t.TempDir()
	cfg := smokeConfig()

	full := filepath.Join(dir, "full.jsonl")
	sumFull, err := RunFile(cfg, full, false)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.jsonl")
	// Cut mid-line somewhere past the header: a torn final record.
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFile(cfg, torn, true); err != nil {
		t.Fatal(err)
	}

	read := func(path string) map[string]bool {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		_, recs, err := readResults(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		set := make(map[string]bool, len(recs))
		for _, r := range recs {
			set[recordKey(r)] = true
		}
		return set
	}
	fullSet, mergedSet := read(full), read(torn)
	if len(mergedSet) != sumFull.Tests || len(mergedSet) != len(fullSet) {
		t.Fatalf("merged run has %d records, uninterrupted %d", len(mergedSet), len(fullSet))
	}
	for k := range fullSet {
		if !mergedSet[k] {
			t.Errorf("record missing from merged run: %s", k)
		}
	}
}

// TestResumeRejectsForeignConfig pins the config-hash gate: resuming a
// results file with a different generation space must error out rather
// than mixing two corpora.
func TestResumeRejectsForeignConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.jsonl")
	cfg := smokeConfig()
	cfg.StopAfter = 5
	if _, err := RunFile(cfg, path, false); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Gen.Seed = 99
	other.Gen.MaxPerShape = 7
	if _, err := RunFile(other, path, true); err == nil {
		t.Fatal("resume with a different config succeeded, want refusal")
	}
}

// TestCampaignExploreCheck runs a campaign with the exploration soak
// enabled: the explore check must actually run (not all skip), find zero
// op-ref violations, and change the config hash only when enabled.
func TestCampaignExploreCheck(t *testing.T) {
	cfg := smokeConfig()
	cfg.Gen.MaxPerShape = 4
	cfg.ExploreSeeds = 4
	if cfg.Hash() == smokeConfig().Hash() {
		t.Fatal("enabling the explore soak must change the config hash")
	}
	path := filepath.Join(t.TempDir(), "results.jsonl")
	sum, err := RunFile(cfg, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Fail != 0 {
		for _, f := range sum.Failures {
			t.Errorf("FAIL %s (%s): %s", f.Name, f.Level, f.Detail)
		}
		t.Fatalf("%d/%d verdicts failed under the explore soak", sum.Fail, sum.Tests)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, recs, err := readResults(f)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, r := range recs {
		if r.Checks["explore"] == VerdictPass {
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("explore check never ran on any generated test")
	}
}
