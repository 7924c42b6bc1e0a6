package core

import (
	"path/filepath"
	"testing"

	"repro/internal/transcache"
	"repro/internal/workloads"
)

// TestTransCacheColdWarm runs the same kernel cold (empty persistent
// cache) and warm (cache reopened from the cold run's journal): the warm
// run must produce the identical exit code while translating every block
// from cached IR — zero frontend work on the view's counters — and a
// third run through a fresh Runtime with no cache must agree too.
func TestTransCacheColdWarm(t *testing.T) {
	k, err := workloads.KernelByName("histogram")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := k.Build(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := pb.BuildGuest("main")
	if err != nil {
		t.Fatal(err)
	}
	imageKey := transcache.Fingerprint(img) + "/" + VariantRisotto.String()
	path := filepath.Join(t.TempDir(), "cache.jsonl")

	run := func(tc TranslationCache) (uint64, uint64) {
		rt, err := newRuntime(config{Variant: VariantRisotto, TransCache: tc}, img)
		if err != nil {
			t.Fatal(err)
		}
		code, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return code, rt.Stats().Blocks
	}

	// Uncached reference.
	wantCode, wantBlocks := run(nil)

	// Cold: populates the journal.
	cache, err := transcache.Open(path, transcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	view := cache.ForImage(imageKey)
	coldCode, coldBlocks := run(view)
	if coldCode != wantCode {
		t.Fatalf("cold run exit = %d, uncached %d", coldCode, wantCode)
	}
	if coldBlocks != wantBlocks {
		t.Fatalf("cold run blocks = %d, uncached %d", coldBlocks, wantBlocks)
	}
	hits, misses := view.Counts()
	if hits != 0 || misses == 0 {
		t.Fatalf("cold view counts = (%d hits, %d misses), want (0, >0)", hits, misses)
	}
	if st := cache.Stats(); uint64(st.Entries) != wantBlocks {
		t.Fatalf("cache entries = %d, want one per block %d", st.Entries, wantBlocks)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm: reopen from disk; every translation must hit.
	cache2, err := transcache.Open(path, transcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	view2 := cache2.ForImage(imageKey)
	warmCode, warmBlocks := run(view2)
	if warmCode != wantCode {
		t.Fatalf("warm run exit = %d, uncached %d", warmCode, wantCode)
	}
	if warmBlocks != wantBlocks {
		t.Fatalf("warm run blocks = %d, uncached %d", warmBlocks, wantBlocks)
	}
	hits2, misses2 := view2.Counts()
	if misses2 != 0 || hits2 != wantBlocks {
		t.Fatalf("warm view counts = (%d hits, %d misses), want (%d, 0)",
			hits2, misses2, wantBlocks)
	}
}

// TestTransCacheSelfCheckBypass pins the documented interaction: with
// SelfCheck on the persistent cache is bypassed entirely (shadow
// verification needs pre-optimization oracle IR that cached entries no
// longer carry), so the view sees no traffic and the run still passes.
func TestTransCacheSelfCheckBypass(t *testing.T) {
	k, err := workloads.KernelByName("histogram")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := k.Build(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := pb.BuildGuest("main")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := transcache.Open(filepath.Join(t.TempDir(), "cache.jsonl"), transcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	view := cache.ForImage("fp/risotto")
	rt, err := newRuntime(config{Variant: VariantRisotto, SelfCheck: true, TransCache: view}, img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().SelfChecks == 0 {
		t.Fatal("selfcheck did not run")
	}
	h, m := view.Counts()
	if h != 0 || m != 0 {
		t.Fatalf("selfcheck run touched the cache: (%d hits, %d misses)", h, m)
	}
}
