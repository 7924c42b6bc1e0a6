package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/guestimg"
	"repro/internal/isa/x86"
)

// Differential testing of the whole DBT pipeline: random guest programs
// are executed by the reference interpreter (internal/isa/x86.Interp) and
// by every DBT variant (frontend → optimizer → backend → machine); final
// register files, the shared data window, and the exit code must agree.

const (
	diffDataBase = 0x40000 // 64-qword shared data window
	diffDataLen  = 64 * 8
	diffTextBase = 0x10000
)

// genProgram builds a random but always-terminating guest program: a
// 3-iteration loop whose body is a run of random operations (ALU, memory
// in the data window, flags+forward branches, stack pushes/pops, atomics),
// ending with an exit syscall whose code checksums the register file.
func genProgram(rng *rand.Rand) (*guestimg.Image, error) {
	b := guestimg.NewBuilder(diffTextBase, diffDataBase)
	data := make([]byte, diffDataLen)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	b.Data(data)

	a := b.Asm
	// Register roles: R15 = data base (never written), R14 = loop
	// counter, RSP untouched by random ops. Everything else is fair game.
	pool := []x86.Reg{x86.RAX, x86.RBX, x86.RCX, x86.RDX, x86.RSI, x86.RDI,
		x86.RBP, x86.R8, x86.R9, x86.R10, x86.R11, x86.R12, x86.R13}
	pick := func() x86.Reg { return pool[rng.Intn(len(pool))] }
	sizes := []uint8{1, 2, 4, 8}

	a.Label("main")
	for i, r := range pool {
		a.MovRI(r, int64(rng.Uint64()>>uint(rng.Intn(40)))+int64(i))
	}
	a.MovRI(x86.R15, diffDataBase)
	a.MovRI(x86.R14, 3)
	a.Label("loop")

	// Memory operand helper: [R15 + (reg&63)*8] stays in the window.
	memIdx := func(idx x86.Reg) x86.Mem {
		return x86.MemIdx(x86.R15, idx, 8, int32(rng.Intn(7))*8)
	}
	labelN := 0
	nOps := 20 + rng.Intn(30)
	for i := 0; i < nOps; i++ {
		switch rng.Intn(18) {
		case 0:
			a.MovRI(pick(), int64(rng.Uint64()>>uint(rng.Intn(33))))
		case 1:
			a.MovRR(pick(), pick())
		case 2:
			ops := []func(x86.Reg, x86.Reg) *x86.Assembler{
				a.AddRR, a.SubRR, a.MulRR, a.AndRR, a.OrRR, a.XorRR,
				a.UDivRR, a.URemRR,
			}
			ops[rng.Intn(len(ops))](pick(), pick())
		case 3:
			ops := []func(x86.Reg, int32) *x86.Assembler{
				a.AddRI, a.SubRI, a.MulRI, a.AndRI, a.OrRI, a.XorRI,
			}
			ops[rng.Intn(len(ops))](pick(), int32(rng.Intn(1<<16))-1<<15)
		case 4:
			// Shift with counts straddling the ≥64 spec corner.
			sh := []func(x86.Reg, int32) *x86.Assembler{a.ShlRI, a.ShrRI, a.SarRI}
			sh[rng.Intn(3)](pick(), int32(rng.Intn(72)))
		case 5:
			a.Neg(pick())
		case 6:
			a.Not(pick())
		case 7:
			idx := pick()
			a.AndRI(idx, 56)
			a.Load(pick(), memIdx(idx), sizes[rng.Intn(4)])
		case 8:
			idx := pick()
			a.AndRI(idx, 56)
			a.Store(memIdx(idx), pick(), sizes[rng.Intn(4)])
		case 9:
			idx := pick()
			a.AndRI(idx, 56)
			a.StoreI(memIdx(idx), int32(rng.Uint32()), sizes[rng.Intn(4)])
		case 10:
			idx := pick()
			a.AndRI(idx, 56)
			a.Lea(pick(), memIdx(idx))
		case 11:
			// Flags + forward conditional skip over a couple of ops.
			lbl := fmt.Sprintf("skip%d", labelN)
			labelN++
			a.CmpRR(pick(), pick())
			conds := []x86.Cond{x86.CondEQ, x86.CondNE, x86.CondLT, x86.CondLE,
				x86.CondGT, x86.CondGE, x86.CondB, x86.CondBE, x86.CondA, x86.CondAE}
			a.Jcc(conds[rng.Intn(len(conds))], lbl)
			a.AddRI(pick(), 7)
			a.XorRR(pick(), pick())
			a.Label(lbl)
		case 12:
			a.TestRR(pick(), pick())
			lbl := fmt.Sprintf("skip%d", labelN)
			labelN++
			a.Jcc(x86.CondNE, lbl)
			a.Not(pick())
			a.Label(lbl)
		case 13:
			a.Push(pick())
			a.Pop(pick())
		case 14:
			idx := pick()
			a.AndRI(idx, 56)
			size := sizes[rng.Intn(4)]
			a.CmpXchg(memIdx(idx), pick(), size)
		case 15:
			idx := pick()
			a.AndRI(idx, 56)
			a.XAdd(memIdx(idx), pick(), sizes[rng.Intn(4)])
		case 16:
			idx := pick()
			a.AndRI(idx, 56)
			a.Xchg(memIdx(idx), pick(), sizes[rng.Intn(4)])
		case 17:
			a.MFence()
		}
	}

	a.SubRI(x86.R14, 1)
	a.CmpRI(x86.R14, 0)
	a.Jcc(x86.CondNE, "loop")

	// Exit code: xor of the pool registers, truncated.
	a.MovRR(x86.RDI, pool[0])
	for _, r := range pool[1:] {
		a.XorRR(x86.RDI, r)
	}
	a.AndRI(x86.RDI, 0xFFFFFF)
	a.MovRI(x86.RAX, GuestSysExit)
	a.Syscall()

	return b.Build("main")
}

func TestDifferentialRandomPrograms(t *testing.T) {
	nSeeds := 150
	if testing.Short() {
		nSeeds = 25
	}
	for seed := 0; seed < nSeeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		img, err := genProgram(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Reference run.
		ref := x86.NewInterp(1 << 20)
		if err := img.Load(ref.Mem); err != nil {
			t.Fatal(err)
		}
		ref.PC = img.Entry
		ref.Regs[x86.RSP] = 0x80000
		if err := ref.Run(2_000_000); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if !ref.Halted {
			t.Fatalf("seed %d: reference did not halt", seed)
		}

		for _, v := range allVariants {
			rt, err := newRuntime(config{Variant: v}, img)
			if err != nil {
				t.Fatalf("seed %d/%v: %v", seed, v, err)
			}
			code, err := rt.Run()
			if err != nil {
				t.Fatalf("seed %d/%v: %v", seed, v, err)
			}
			if code != ref.ExitCode {
				t.Fatalf("seed %d/%v: exit %d != reference %d",
					seed, v, code, ref.ExitCode)
			}
			c := rt.M.CPUs[0]
			for reg := 0; reg < x86.NumRegs; reg++ {
				if x86.Reg(reg) == x86.RSP {
					continue // stacks live at different addresses
				}
				if c.Regs[reg] != ref.Regs[reg] {
					t.Fatalf("seed %d/%v: %v = %#x, reference %#x",
						seed, v, x86.Reg(reg), c.Regs[reg], ref.Regs[reg])
				}
			}
			for off := 0; off < diffDataLen; off++ {
				if rt.M.Mem[diffDataBase+off] != ref.Mem[diffDataBase+off] {
					t.Fatalf("seed %d/%v: mem[%#x] = %#x, reference %#x",
						seed, v, diffDataBase+off,
						rt.M.Mem[diffDataBase+off], ref.Mem[diffDataBase+off])
				}
			}
		}
	}
}
