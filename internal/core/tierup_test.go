package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/portasm"
	"repro/internal/selfheal"
	"repro/internal/workloads"
)

// tierUpOpts is the aggressive promotion configuration the tests use: a
// low threshold so short kernels still go hot.
func tierUpOpts() Option {
	return WithTierUp(TierUpConfig{Enabled: true, PromoteThreshold: 4, SuperblockMax: 4})
}

func buildKernelImage(t *testing.T, name string, threads int) *Runtime {
	t.Helper()
	return buildKernelRuntime(t, name, threads)
}

func buildKernelRuntime(t *testing.T, name string, threads int, opts ...Option) *Runtime {
	t.Helper()
	k, err := workloads.KernelByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Build(threads, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := b.BuildGuest("main")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(img, append([]Option{WithVariant(VariantRisotto)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestTierUpPromotesFenceChain is the tentpole's happy path: the
// fencechain kernel goes hot, blocks are promoted into superblocks, and
// at least one fence merge happens across a block seam — with the same
// guest result as the untiered run.
func TestTierUpPromotesFenceChain(t *testing.T) {
	base := buildKernelRuntime(t, "fencechain", 1)
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	rt := buildKernelRuntime(t, "fencechain", 1, tierUpOpts())
	got, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("tier-up changed the checksum: %d, want %d", got, want)
	}
	st := rt.Stats()
	if st.Promotions == 0 {
		t.Fatal("no promotions on the canonical hot kernel")
	}
	if st.Superblocks == 0 || st.SuperblockGuestBlocks < 2 {
		t.Fatalf("superblocks=%d guest blocks=%d; want a multi-block trace",
			st.Superblocks, st.SuperblockGuestBlocks)
	}
	if st.CrossBlockFenceMerges == 0 {
		t.Fatal("no cross-block fence merges on the kernel built to force them")
	}
	if rt.Heal().Quarantined() != 0 {
		t.Fatal("promotion must not count as a quarantine")
	}
}

// runTierDiff runs one kernel with and without tier-up and compares the
// final guest-visible state. Tier level must never change guest semantics:
// the exit checksum always agrees, and for single-worker runs the entire
// guest memory below the code cache is byte-identical.
func runTierDiff(t *testing.T, name string, threads int, compareMem bool) {
	t.Helper()
	base := buildKernelRuntime(t, name, threads)
	baseCode, err := base.Run()
	if err != nil {
		t.Fatalf("%s baseline: %v", name, err)
	}
	tier := buildKernelRuntime(t, name, threads, tierUpOpts())
	tierCode, err := tier.Run()
	if err != nil {
		t.Fatalf("%s tier-up: %v", name, err)
	}
	if baseCode != tierCode {
		t.Fatalf("%s: exit %d with tier-up, %d without", name, tierCode, baseCode)
	}
	if compareMem {
		limit := base.cfg.CodeCacheBase
		if tier.cfg.CodeCacheBase != limit {
			t.Fatalf("%s: code cache bases differ", name)
		}
		if !bytes.Equal(base.M.Mem[:limit], tier.M.Mem[:limit]) {
			for i := uint64(0); i < limit; i++ {
				if base.M.Mem[i] != tier.M.Mem[i] {
					t.Fatalf("%s: guest memory diverges at %#x (%#x vs %#x)",
						name, i, base.M.Mem[i], tier.M.Mem[i])
				}
			}
		}
	}
}

// TestTierUpDifferentialKernels sweeps the whole workload suite at one
// worker thread: byte-identical guest memory and exit codes.
func TestTierUpDifferentialKernels(t *testing.T) {
	for _, k := range workloads.Registry() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			runTierDiff(t, k.Name, 1, true)
		})
	}
}

// TestTierUpDifferentialThreads compares exit codes at two worker threads,
// where scheduling interleavings may differ between tiers but the joined
// result may not.
func TestTierUpDifferentialThreads(t *testing.T) {
	for _, name := range []string{"histogram", "wordcount", "canneal", "fencechain"} {
		runTierDiff(t, name, 2, false)
	}
}

// seededProgram generates a deterministic random single-thread guest: a
// counted loop of loads, stores, arithmetic and block-splitting jumps over
// a scratch array, exiting with an accumulator checksum. The campaign
// slice of the differential: shapes the fixed kernel suite doesn't cover.
func seededProgram(seed int64) (*portasm.Builder, error) {
	const (
		r1 = portasm.Reg(1) // loop index
		r3 = portasm.Reg(3) // array base
		r5 = portasm.Reg(5) // accumulator
		r6 = portasm.Reg(6) // scratch
	)
	rng := rand.New(rand.NewSource(seed))
	b := portasm.NewBuilder()
	words := make([]byte, 64*8)
	rng.Read(words)
	arr := b.Data(words)

	b.Label("main").
		MovI(r3, int64(arr)).
		MovI(r1, 0).
		MovI(r5, 0).
		Label("loop")
	splits := 0
	for i, n := 0, 4+rng.Intn(6); i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			b.LdIdx(r6, r3, r1, 8, 8).AddR(r5, r6)
		case 1:
			b.Mov(r6, r5).AluI(portasm.And, r6, 0xFF).StIdx(r3, r1, 8, r6, 8)
		case 2:
			b.AddI(r5, int64(1+rng.Intn(99)))
		case 3:
			lbl := fmt.Sprintf("split_%d_%d", seed, splits)
			splits++
			b.Jmp(lbl).Label(lbl)
		}
	}
	b.AddI(r1, 1).
		CmpI(r1, 48).
		J(portasm.NE, "loop").
		AluI(portasm.And, r5, 0xFFFFFF).
		Exit(r5)
	return b, nil
}

// TestTierUpDifferentialSeeded runs the generated corpus slice through the
// same on/off comparison.
func TestTierUpDifferentialSeeded(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			run := func(opts ...Option) (uint64, *Runtime) {
				b, err := seededProgram(seed)
				if err != nil {
					t.Fatal(err)
				}
				img, err := b.BuildGuest("main")
				if err != nil {
					t.Fatal(err)
				}
				rt, err := New(img, append([]Option{WithVariant(VariantRisotto)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				code, err := rt.Run()
				if err != nil {
					t.Fatal(err)
				}
				return code, rt
			}
			baseCode, base := run()
			tierCode, tier := run(tierUpOpts())
			if baseCode != tierCode {
				t.Fatalf("seed %d: exit %d with tier-up, %d without", seed, tierCode, baseCode)
			}
			limit := base.cfg.CodeCacheBase
			if !bytes.Equal(base.M.Mem[:limit], tier.M.Mem[:limit]) {
				t.Fatalf("seed %d: guest memory diverges", seed)
			}
		})
	}
}

// TestTierUpPromotedBlockDemotes drives the down direction after a
// promotion: quarantining a promoted superblock must demote it from
// TierFull, clear its retained promotion (so a flush cannot resurrect the
// rejected code), and feed the blacklist.
func TestTierUpPromotedBlockDemotes(t *testing.T) {
	rt := buildKernelRuntime(t, "fencechain", 1, tierUpOpts())
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rt.tierup.promoted) == 0 {
		t.Fatal("run finished without promotions")
	}
	var pc uint64
	for p := range rt.tierup.promoted {
		pc = p
		break
	}
	c := rt.M.CPUs[0]
	if !rt.quarantinePC(c, pc, "synthetic trap in promoted code") {
		t.Fatal("quarantine of a promoted block must demote, not exhaust")
	}
	if got := rt.Heal().TierOf(pc); got != selfheal.TierNoFenceMerge {
		t.Fatalf("demoted tier %v, want TierNoFenceMerge (one rung below TierFull)", got)
	}
	if rt.tierup.promoted[pc] != nil {
		t.Fatal("demotion left the retained promotion in place")
	}
	if rt.Heal().Failures(pc) != 1 {
		t.Fatalf("failures = %d, want 1", rt.Heal().Failures(pc))
	}
	// One more failure reaches the blacklist: promotion requests and chain
	// deferral both stop.
	rt.quarantinePC(c, pc, "second synthetic trap")
	if rt.Heal().PromotionAllowed(pc) {
		t.Fatal("block must be blacklisted after repeated demotions")
	}
	if rt.tierup.deferChain(pc) {
		t.Fatal("blacklisted block must chain normally (counter no longer matters)")
	}
	before := rt.Stats().Promotions
	rt.tierup.request(pc)
	if rt.Stats().Promotions != before || rt.tierup.pending[pc] {
		t.Fatal("blacklisted block must not be enqueued for promotion")
	}
}

// TestTierUpStopDrainsBacklog: stop must not hang when more results are
// outstanding than the results buffer holds. Workers block sending into
// the full channel, so stop has to drain concurrently with the worker
// wait — a sequential close-wait-drain deadlocks here. The fill count is
// the queue depth plus one in-flight job per worker: the most that can be
// outstanding at once, and just past the results buffer. The junk PCs
// make every job fail translation; error results still flow back and
// must all be consumed.
func TestTierUpStopDrainsBacklog(t *testing.T) {
	rt := buildKernelRuntime(t, "fencechain", 1, tierUpOpts())
	tu := rt.tierup
	tu.start()
	for i := 0; i < cap(tu.reqs)+promotionWorkers; i++ {
		tu.reqs <- promoteReq{pc: uint64(1<<40 + i)}
	}
	tu.stop(rt.M.CPUs[0])
	if tu.started {
		t.Fatal("stop left the pool marked started")
	}
	if rt.Stats().Promotions != 0 {
		t.Fatal("failed translations must not install")
	}
}

// TestTierUpStaleResultDropped: a promotion built before the ladder moved
// must be discarded at install time.
func TestTierUpStaleResultDropped(t *testing.T) {
	rt := buildKernelRuntime(t, "fencechain", 1, tierUpOpts())
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	c := rt.M.CPUs[0]
	const pc = 0x10000 // kernel entry: certainly a real block
	rt.Heal().QuarantineAt(pc, selfheal.TierNoOpt, "moved the ladder")
	before := rt.Stats().Promotions
	rt.tierup.install(c, &promotion{pc: pc, failures: 0}) // built before the quarantine
	if rt.Stats().Promotions != before {
		t.Fatal("stale promotion was installed")
	}
	if rt.tierup.promoted[pc] != nil {
		t.Fatal("stale promotion retained")
	}
}

// TestTierUpDeferChain pins the chain-deferral predicate: defer while the
// target's counter still matters, chain once promoted.
func TestTierUpDeferChain(t *testing.T) {
	rt := buildKernelRuntime(t, "fencechain", 1, tierUpOpts())
	if !rt.tierup.deferChain(0x12345) {
		t.Fatal("fresh promotable block must defer chaining")
	}
	rt.tierup.promoted[0x12345] = &promotion{pc: 0x12345}
	if rt.tierup.deferChain(0x12345) {
		t.Fatal("promoted block must chain")
	}
}

// TestTierUpRaceStress exercises promotion racing execution, installation
// and worker handoff under the race detector: several guest threads, an
// aggressive threshold, and repeated runs so worker goroutines overlap
// dispatch activity.
func TestTierUpRaceStress(t *testing.T) {
	for i := 0; i < 3; i++ {
		for _, name := range []string{"fencechain", "histogram"} {
			rt := buildKernelRuntime(t, name, 4,
				WithTierUp(TierUpConfig{Enabled: true, PromoteThreshold: 2, SuperblockMax: 4}),
				WithSelfCheck(true))
			if _, err := rt.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestTierUpSelfCheckVerifiesPromotions: with -selfcheck on, promoted
// superblocks are shadow-verified against the stitched oracle before they
// are trusted; a clean kernel must promote without divergences.
func TestTierUpSelfCheckVerifiesPromotions(t *testing.T) {
	rt := buildKernelRuntime(t, "fencechain", 1, tierUpOpts(), WithSelfCheck(true))
	code, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	base := buildKernelRuntime(t, "fencechain", 1)
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != want {
		t.Fatalf("checksum %d, want %d", code, want)
	}
	st := rt.Stats()
	if st.Promotions == 0 {
		t.Fatal("selfcheck mode must still promote")
	}
	if st.Divergences != 0 {
		t.Fatalf("clean kernel reported %d divergences", st.Divergences)
	}
}
