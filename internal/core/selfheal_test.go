package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/isa/x86"
	"repro/internal/obs"
	"repro/internal/selfheal"
)

// TestSelfhealFaultRecoversMiscompile injects translation corruption with
// only the heal layer on (no selfcheck): the corrupted block executes its
// miscompile marker, the trap is attributed, the block quarantined and
// demoted, and the run completes with the fault-free result.
func TestSelfhealFaultRecoversMiscompile(t *testing.T) {
	const nblocks = 4
	in := faults.NewInjector(1)
	in.Arm(faults.SiteMiscompile, 1, faults.TrapMiscompile)
	rt, err := newRuntime(config{Variant: VariantRisotto, SelfHeal: true, Inject: in},
		chainImage(t, nblocks, 2))
	if err != nil {
		t.Fatal(err)
	}
	code, err := rt.Run()
	if err != nil {
		t.Fatalf("miscompile not healed: %v", err)
	}
	if code != nblocks {
		t.Errorf("exit = %d, want %d", code, nblocks)
	}
	st := rt.Stats()
	if st.Quarantines == 0 || st.Demotions == 0 || st.Heals == 0 {
		t.Errorf("stats = quarantines %d, demotions %d, heals %d; want all nonzero",
			st.Quarantines, st.Demotions, st.Heals)
	}
	if rt.Heal().Quarantined() == 0 {
		t.Error("quarantine registry is empty after a heal")
	}
}

// TestSelfcheckFaultDetectsMiscompile injects the same corruption with
// -selfcheck semantics: shadow verification must catch the divergence at
// translation time — before the corrupt block ever executes on live state —
// quarantine it, and the run completes correctly without needing a heal.
func TestSelfcheckFaultDetectsMiscompile(t *testing.T) {
	const nblocks = 4
	in := faults.NewInjector(1)
	in.Arm(faults.SiteMiscompile, 1, faults.TrapMiscompile)
	rt, err := newRuntime(config{Variant: VariantRisotto, SelfCheck: true, Inject: in},
		chainImage(t, nblocks, 2))
	if err != nil {
		t.Fatal(err)
	}
	code, err := rt.Run()
	if err != nil {
		t.Fatalf("miscompile not recovered under selfcheck: %v", err)
	}
	if code != nblocks {
		t.Errorf("exit = %d, want %d", code, nblocks)
	}
	st := rt.Stats()
	if st.Divergences == 0 {
		t.Error("selfcheck recorded no divergence for corrupted translation")
	}
	if st.Quarantines == 0 {
		t.Error("divergence did not quarantine the block")
	}
	if st.SelfChecks == 0 {
		t.Error("no shadow verifications ran")
	}
}

// TestSelfcheckCleanRunVerifies runs an uncorrupted workload under
// selfcheck: every call-free block verifies, nothing diverges, and the
// result is unchanged.
func TestSelfcheckCleanRunVerifies(t *testing.T) {
	const nblocks = 6
	plain, perr := newRuntime(config{Variant: VariantRisotto}, chainImage(t, nblocks, 2))
	if perr != nil {
		t.Fatal(perr)
	}
	want, perr := plain.Run()
	if perr != nil {
		t.Fatal(perr)
	}

	rt, err := newRuntime(config{Variant: VariantRisotto, SelfCheck: true}, chainImage(t, nblocks, 2))
	if err != nil {
		t.Fatal(err)
	}
	code, err := rt.Run()
	if err != nil {
		t.Fatalf("selfcheck run failed: %v", err)
	}
	if code != want {
		t.Errorf("selfcheck changed the result: %d, want %d", code, want)
	}
	st := rt.Stats()
	if st.SelfChecks == 0 {
		t.Error("no shadow verifications ran")
	}
	if st.Divergences != 0 || st.Quarantines != 0 {
		t.Errorf("clean run diverged: divergences %d, quarantines %d",
			st.Divergences, st.Quarantines)
	}
}

// interpWorkloadImage builds a threaded guest exercising every interp-tier
// helper path: a spawned worker XAdds a shared counter iters times while
// main blocks in join (the interp yield path), then main reads the counter.
func interpWorkloadImage(t *testing.T, iters int) *guestimg.Image {
	t.Helper()
	b := guestimg.NewBuilder(0x10000, 0x40000)
	counter := b.Zeros(8)
	a := b.Asm
	a.Label("worker").
		MovRI(x86.RSI, int64(counter)).
		MovRI(x86.RCX, 0).
		Label("wloop").
		MovRI(x86.RBX, 1).
		XAdd(x86.Mem0(x86.RSI), x86.RBX, 8).
		AddRI(x86.RCX, 1).
		CmpRI(x86.RCX, int32(iters)).
		Jcc(x86.CondNE, "wloop").
		MovRI(x86.RDI, 0).
		MovRI(x86.RAX, GuestSysExit).
		Syscall()
	a.Label("main").
		MovRI(x86.RAX, GuestSysSpawn).
		MovRI(x86.RDI, 0x7777777700000000). // placeholder: worker addr
		MovRI(x86.RSI, 0).
		Syscall().
		MovRR(x86.RDI, x86.RAX).
		MovRI(x86.RAX, GuestSysJoin).
		Syscall().
		MovRI(x86.RSI, int64(counter)).
		Load(x86.RAX, x86.Mem0(x86.RSI), 8)
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	patchImm64(t, img, 0x7777777700000000, img.Symbols["worker"])
	return img
}

// TestInterpTierExecutes pins the bottom of the ladder: with every block
// forced to TierInterp, the whole threaded workload — atomic RMW helpers,
// spawn, a blocking join, exit — runs through the TCG interpreter with no
// generated code for the guest's logic, and the result matches the
// compiled run.
func TestInterpTierExecutes(t *testing.T) {
	const iters = 64
	img := interpWorkloadImage(t, iters)
	cfg := config{StackSize: 64 << 10}

	_, want := runImage(t, img, VariantRisotto, cfg)
	if want != iters {
		t.Fatalf("compiled run = %d, want %d", want, iters)
	}
	// Learn the block PCs from a compiled run, then force them all down.
	probe, err := newRuntime(config{Variant: VariantRisotto, StackSize: 64 << 10}, img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Run(); err != nil {
		t.Fatal(err)
	}
	pcs := probe.BlockPCs()
	if len(pcs) == 0 {
		t.Fatal("probe run translated no blocks")
	}

	rt, err := newRuntime(config{Variant: VariantRisotto, StackSize: 64 << 10, SelfHeal: true}, img)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range pcs {
		rt.Heal().SetTier(pc, selfheal.TierInterp)
	}
	code, err := rt.Run()
	if err != nil {
		t.Fatalf("interp-tier run failed: %v", err)
	}
	if code != want {
		t.Errorf("interp-tier exit = %d, want %d", code, want)
	}
	st := rt.Stats()
	if st.InterpBlocks == 0 {
		t.Error("no blocks executed through the interpreter")
	}
	if st.HelperCalls == 0 || st.Syscalls == 0 {
		t.Errorf("interp tier served helpers %d, syscalls %d; want both nonzero",
			st.HelperCalls, st.Syscalls)
	}
}

// TestTierLadderWalksToInterp repeatedly re-injects miscompile corruption
// against the same entry block: each heal demotes one rung, and the block's
// recorded tier descends the ladder rather than oscillating.
func TestTierLadderWalksToInterp(t *testing.T) {
	const nblocks = 3
	in := faults.NewInjector(1)
	// The first block's translation is corrupted at every compiled tier:
	// occurrences 1, 2 and 3 hit its retranslations (the injection is
	// consumed before any other block translates).
	in.Arm(faults.SiteMiscompile, 1, faults.TrapMiscompile)
	in.Arm(faults.SiteMiscompile, 2, faults.TrapMiscompile)
	in.Arm(faults.SiteMiscompile, 3, faults.TrapMiscompile)
	img := chainImage(t, nblocks, 2)
	rt, err := newRuntime(config{Variant: VariantRisotto, SelfHeal: true, Inject: in}, img)
	if err != nil {
		t.Fatal(err)
	}
	code, err := rt.Run()
	if err != nil {
		t.Fatalf("repeated corruption not healed: %v", err)
	}
	if code != nblocks {
		t.Errorf("exit = %d, want %d", code, nblocks)
	}
	if tier := rt.Heal().TierOf(img.Entry); tier != selfheal.TierInterp {
		t.Errorf("entry block tier = %v after three corrupted translations, want interp", tier)
	}
	if st := rt.Stats(); st.InterpBlocks == 0 {
		t.Errorf("ladder bottom never executed: stats %+v", st)
	}
}

// TestCrashBundleReplayReproducesTrap is the determinism contract end to
// end: an unrecovered injected trap serializes into a bundle, Replay
// rebuilds the run, the replay produces the identical trap, and re-bundling
// the replay yields byte-identical output.
func TestCrashBundleReplayReproducesTrap(t *testing.T) {
	img := chainImage(t, 4, 1)
	in := faults.NewInjector(1)
	in.Arm(faults.SiteDecode, 3, faults.TrapDecode)
	rt, err := newRuntime(config{
		Variant:   VariantRisotto,
		FaultSpec: "decode@3",
		FaultSeed: 1,
		Inject:    in,
		Obs:       obs.NewScope(""),
	}, img)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := rt.Run()
	tr, ok := faults.As(runErr)
	if !ok || tr.Kind != faults.TrapDecode {
		t.Fatalf("run error = %v, want injected decode trap", runErr)
	}

	b, err := rt.CrashBundle("risotto", runErr)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := selfheal.DecodeBundle(enc)
	if err != nil {
		t.Fatalf("bundle does not round-trip: %v", err)
	}

	rimg, restore, err := Replay(back)
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := New(rimg, restore, WithObs(obs.NewScope("")))
	if err != nil {
		t.Fatal(err)
	}
	_, replayErr := rt2.Run()
	tr2, ok := faults.As(replayErr)
	if !ok {
		t.Fatalf("replay error = %v, want a trap", replayErr)
	}
	if !back.Trap.Matches(tr2) {
		t.Fatalf("replay trap %v does not match bundled %+v", tr2, back.Trap)
	}

	b2, err := rt2.CrashBundle("risotto", replayErr)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := b2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Errorf("replay re-bundle is not byte-identical (%d vs %d bytes)", len(enc), len(enc2))
	}
}

// TestCrashBundleRequiresTrap pins the error contract: only structured
// traps bundle.
func TestCrashBundleRequiresTrap(t *testing.T) {
	rt, err := newRuntime(config{Variant: VariantRisotto}, chainImage(t, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CrashBundle("risotto", errors.New("not a trap")); err == nil {
		t.Error("CrashBundle accepted a plain error")
	}
}

// TestPinnedOverlapBoundaries pins the half-open extent arithmetic: an
// extent [start, end) must collide with a probe touching any byte in it and
// with nothing outside, including the exactly-adjacent ranges on both sides
// and an adjacent second extent.
func TestPinnedOverlapBoundaries(t *testing.T) {
	rt, err := newRuntime(config{Variant: VariantRisotto}, chainImage(t, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	rt.pinned = []extent{{start: 100, end: 200}, {start: 200, end: 300}}

	cases := []struct {
		name       string
		start, end uint64
		hit        bool
		want       extent
	}{
		{"before", 0, 100, false, extent{}},
		{"first-byte", 100, 101, true, extent{100, 200}},
		{"straddles-start", 99, 101, true, extent{100, 200}},
		{"last-byte", 199, 200, true, extent{100, 200}},
		{"adjacent-second", 200, 201, true, extent{200, 300}},
		{"covers-both", 50, 400, true, extent{100, 200}},
		{"after", 300, 400, false, extent{}},
		{"empty-at-start", 100, 100, false, extent{}},
	}
	for _, tc := range cases {
		got, ok := rt.pinnedOverlap(tc.start, tc.end)
		if ok != tc.hit {
			t.Errorf("%s: overlap [%d,%d) = %v, want %v", tc.name, tc.start, tc.end, ok, tc.hit)
			continue
		}
		if ok && got != tc.want {
			t.Errorf("%s: returned extent %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestFlushPinsExactEdges checks flushCodeCache's liveness test at the
// extent edges: a CPU parked on a block's first byte (or holding it in the
// link register) pins the extent; one byte past the end does not, and
// halted CPUs never pin.
func TestFlushPinsExactEdges(t *testing.T) {
	newRT := func() *Runtime {
		rt, err := newRuntime(config{Variant: VariantRisotto}, chainImage(t, 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	const codeLen = 32
	plant := func(rt *Runtime) extent {
		base := rt.codeCursor
		rt.tbs[0x10000] = &tb{guestPC: 0x10000, hostAddr: base, codeLen: codeLen}
		return extent{start: base, end: base + codeLen}
	}

	// PC at the first byte: pinned.
	rt := newRT()
	e := plant(rt)
	rt.M.CPUs[0].PC = e.start
	rt.flushCodeCache()
	if len(rt.pinned) != 1 || rt.pinned[0] != e {
		t.Errorf("PC at start: pinned = %+v, want [%+v]", rt.pinned, e)
	}

	// PC exactly one past the end (end is exclusive): not pinned.
	rt = newRT()
	e = plant(rt)
	rt.M.CPUs[0].PC = e.end
	rt.flushCodeCache()
	if len(rt.pinned) != 0 {
		t.Errorf("PC at end: pinned = %+v, want none", rt.pinned)
	}

	// Link register on the last byte: pinned (helper return path).
	rt = newRT()
	e = plant(rt)
	rt.M.CPUs[0].PC = 0
	rt.M.CPUs[0].Regs[30] = e.end - 1
	rt.flushCodeCache()
	if len(rt.pinned) != 1 || rt.pinned[0] != e {
		t.Errorf("LR at last byte: pinned = %+v, want [%+v]", rt.pinned, e)
	}

	// A halted CPU parked inside the extent does not pin it.
	rt = newRT()
	e = plant(rt)
	rt.M.CPUs[0].PC = e.start
	rt.M.CPUs[0].Halted = true
	rt.flushCodeCache()
	if len(rt.pinned) != 0 {
		t.Errorf("halted CPU: pinned = %+v, want none", rt.pinned)
	}

	// A previously pinned extent survives further flushes while live and is
	// released once no CPU references it.
	rt = newRT()
	e = plant(rt)
	rt.M.CPUs[0].PC = e.start
	rt.flushCodeCache()
	rt.flushCodeCache() // tbs now empty; pin carried forward while PC inside
	if len(rt.pinned) != 1 || rt.pinned[0] != e {
		t.Errorf("carried pin: pinned = %+v, want [%+v]", rt.pinned, e)
	}
	rt.M.CPUs[0].PC = e.end
	rt.flushCodeCache()
	if len(rt.pinned) != 0 {
		t.Errorf("released pin: pinned = %+v, want none", rt.pinned)
	}
}
