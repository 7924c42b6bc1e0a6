package core

import (
	"math/rand"
	"testing"

	"repro/internal/guestimg"
	"repro/internal/isa/x86"
)

// chainLoopImage builds a hot loop spanning two blocks (the loop back-edge
// is a constant-target exit), ideal for chaining.
func chainLoopImage(t *testing.T) (*guestimg.Image, uint64) {
	t.Helper()
	b := guestimg.NewBuilder(0x10000, 0x40000)
	cell := b.Zeros(8)
	a := b.Asm
	const iters = 2000
	a.Label("main").
		MovRI(x86.RCX, 0).
		MovRI(x86.RSI, int64(cell)).
		Label("loop").
		Load(x86.RAX, x86.Mem0(x86.RSI), 8).
		AddRI(x86.RAX, 3).
		Store(x86.Mem0(x86.RSI), x86.RAX, 8).
		AddRI(x86.RCX, 1).
		CmpRI(x86.RCX, iters).
		Jcc(x86.CondNE, "loop").
		MovRR(x86.RDI, x86.RAX).
		MovRI(x86.RAX, GuestSysExit).
		Syscall()
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return img, iters * 3
}

func TestChainingPreservesSemantics(t *testing.T) {
	img, want := chainLoopImage(t)
	for _, chain := range []bool{false, true} {
		rt, err := newRuntime(config{Variant: VariantRisotto, Chain: chain}, img)
		if err != nil {
			t.Fatal(err)
		}
		code, err := rt.Run()
		if err != nil {
			t.Fatalf("chain=%v: %v", chain, err)
		}
		if code != want {
			t.Fatalf("chain=%v: exit %d, want %d", chain, code, want)
		}
		if chain && rt.Stats().ChainPatches == 0 {
			t.Fatal("chaining enabled but no exits were patched")
		}
		if !chain && rt.Stats().ChainPatches != 0 {
			t.Fatal("chaining disabled but exits were patched")
		}
	}
}

func TestChainingSavesDispatchCycles(t *testing.T) {
	img, _ := chainLoopImage(t)
	run := func(chain bool) uint64 {
		rt, err := newRuntime(config{Variant: VariantRisotto, Chain: chain}, img)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return rt.M.MaxCycles()
	}
	plain := run(false)
	chained := run(true)
	if chained >= plain {
		t.Fatalf("chaining should save cycles: %d vs %d", chained, plain)
	}
	// Each loop iteration crosses two constant exits (taken-branch and
	// back-edge blocks); chaining should recoup most of their trap cost.
	if saved := plain - chained; saved < 1000 {
		t.Fatalf("chaining saved only %d cycles", saved)
	}
}

func TestChainingDifferentialRandomPrograms(t *testing.T) {
	// The random-program differential harness with chaining enabled.
	nSeeds := 40
	if testing.Short() {
		nSeeds = 10
	}
	for seed := 0; seed < nSeeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		img, err := genProgram(rng)
		if err != nil {
			t.Fatal(err)
		}
		ref := x86.NewInterp(1 << 20)
		if err := img.Load(ref.Mem); err != nil {
			t.Fatal(err)
		}
		ref.PC = img.Entry
		ref.Regs[x86.RSP] = 0x80000
		if err := ref.Run(2_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rt, err := newRuntime(config{Variant: VariantRisotto, Chain: true}, img)
		if err != nil {
			t.Fatal(err)
		}
		code, err := rt.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if code != ref.ExitCode {
			t.Fatalf("seed %d: chained exit %d != reference %d", seed, code, ref.ExitCode)
		}
		for off := 0; off < diffDataLen; off++ {
			if rt.M.Mem[diffDataBase+off] != ref.Mem[diffDataBase+off] {
				t.Fatalf("seed %d: mem[%#x] differs under chaining", seed, diffDataBase+off)
			}
		}
	}
}

func TestChainingLeavesHostCallsTrapping(t *testing.T) {
	// A PLT-linked call target must never be chained: the host call runs
	// in the dispatcher.
	b := guestimg.NewBuilder(0x10000, 0x40000)
	b.Import("triple")
	a := b.Asm
	a.Label("main").
		MovRI(x86.RCX, 0).
		Label("loop").
		MovRI(x86.RDI, 14).
		Call("triple@plt").
		AddRI(x86.RCX, 1).
		CmpRI(x86.RCX, 50).
		Jcc(x86.CondNE, "loop").
		MovRR(x86.RDI, x86.RAX).
		MovRI(x86.RAX, GuestSysExit).
		Syscall().
		Label("triple").
		MovRR(x86.RAX, x86.RDI).
		MulRI(x86.RAX, 3).
		AddRI(x86.RAX, 1).
		Ret()
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	lib := newTestLib()
	rt, err := newRuntime(config{Variant: VariantRisotto, Chain: true,
		IDL: "i64 triple(i64 x);\n", Lib: lib}, img)
	if err != nil {
		t.Fatal(err)
	}
	code, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != 42 {
		t.Fatalf("exit = %d, want 42 (host impl)", code)
	}
	if rt.Stats().HostCalls != 50 {
		t.Fatalf("host calls = %d, want 50 (every iteration must trap)", rt.Stats().HostCalls)
	}
}
