package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/portasm"
	"repro/internal/transcache"
)

// coldFuncs and coldBlocksPerFunc size a generated program: about 200
// functions of about 10 blocks, some 2,000 distinct translation blocks
// each executed about once.
const (
	coldFuncs         = 200
	coldBlocksPerFunc = 10
)

// Registers of generated programs: v0 holds the data base and is never
// written; v1–v9 carry values.
const (
	coldBase  portasm.Reg = 0
	coldWords             = 512 // qwords of seeded data
)

// coldProgram generates one terminating program from seed: main calls each
// function once; a function is a chain of blocks that mix loads, stores,
// ALU ops and occasional MFENCEs, each ending in a data-dependent forward
// branch, so no block runs twice. The exit code folds every register.
func coldProgram(seed int64) *portasm.Builder {
	rng := rand.New(rand.NewSource(seed))
	b := portasm.NewBuilder()
	data := make([]byte, coldWords*8)
	rng.Read(data)
	base := b.Data(data)
	reg := func() portasm.Reg { return portasm.Reg(1 + rng.Intn(portasm.NumRegs-1)) }
	disp := func() int64 { return 8 * int64(rng.Intn(coldWords)) }
	aluKinds := []portasm.AluKind{portasm.Add, portasm.Sub, portasm.Mul, portasm.And, portasm.Or, portasm.Xor, portasm.Shl, portasm.Shr}
	conds := []portasm.Cond{portasm.EQ, portasm.NE, portasm.LT, portasm.LE, portasm.GT, portasm.GE, portasm.LO, portasm.LS, portasm.HI, portasm.HS}

	b.Label("main")
	b.MovI(coldBase, int64(base))
	for r := portasm.Reg(1); r < portasm.NumRegs; r++ {
		b.Ld(r, coldBase, disp(), 8)
	}
	for f := 0; f < coldFuncs; f++ {
		b.Call(fmt.Sprintf("f%d", f))
	}
	for r := portasm.Reg(2); r < portasm.NumRegs; r++ {
		b.Alu(portasm.Xor, 1, r)
	}
	b.Exit(1)

	for f := 0; f < coldFuncs; f++ {
		label := func(blk int) string { return fmt.Sprintf("f%d.b%d", f, blk) }
		b.Label(fmt.Sprintf("f%d", f))
		n := coldBlocksPerFunc - 2 + rng.Intn(5)
		for blk := 0; blk < n; blk++ {
			b.Label(label(blk))
			for i, ops := 0, 4+rng.Intn(6); i < ops; i++ {
				switch x := rng.Intn(20); {
				case x < 6:
					k := aluKinds[rng.Intn(len(aluKinds))]
					imm := rng.Int63n(1 << 16)
					if k == portasm.Shl || k == portasm.Shr {
						imm &= 63
					}
					b.AluI(k, reg(), imm)
				case x < 11:
					b.Alu(aluKinds[rng.Intn(len(aluKinds))], reg(), reg())
				case x < 15:
					b.Ld(reg(), coldBase, disp(), 8)
				case x < 19:
					b.St(coldBase, disp(), reg(), 8)
				default:
					b.MFence()
				}
			}
			// Skip one or two blocks ahead on a data-dependent condition.
			b.CmpI(reg(), rng.Int63n(1<<16))
			b.J(conds[rng.Intn(len(conds))], label(blk+1+rng.Intn(2)))
		}
		b.Label(label(n))
		b.Label(label(n + 1))
		b.Ret()
	}
	return b
}

// coldPool is the coldcode workload's pool size: each op runs the next
// program of the pool on a fresh runtime, so every op translates its
// program's thousands of blocks from scratch.
const coldPool = 24

// coldcode runs freshly generated translation-bound programs under the
// risotto variant: the start-up phase of a real binary, where the
// frontend, optimizer and backend dominate.
type coldcode struct {
	seed  int64
	progs []program
	first dbtCounts
}

// programSeed derives the seed of program i of a workload seed.
func programSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

func (w *coldcode) setup(tr *tracer) error {
	w.progs = w.progs[:0]
	for i := 0; i < coldPool; i++ {
		name := fmt.Sprintf("cold-%d-%d", w.seed, i)
		p, err := buildProgram(tr, name, coldProgram(programSeed(w.seed, i)))
		if err != nil {
			return fmt.Errorf("coldcode: %w", err)
		}
		w.progs = append(w.progs, p)
	}
	return nil
}

func (w *coldcode) measure(seconds float64, tr *tracer) phase {
	input := func(k int) (program, core.Variant) { return w.progs[k%len(w.progs)], core.VariantRisotto }
	return measureDBT(seconds, tr, len(w.progs), input, &w.first)
}

func (w *coldcode) simCyclesPerOp() float64 { return w.first.cyclesPerOp() }

func (w *coldcode) layers(tr *tracer, m map[string]float64) {
	lt := tr.layers()
	dbtLayers(lt, w.first, m)
	nativeLayers(lt, w.progs, m)
}

func (w *coldcode) inputs() []string {
	out := make([]string, len(w.progs))
	for i, p := range w.progs {
		out[i] = transcache.Fingerprint(p.img)
	}
	return out
}

func (w *coldcode) close() error { return nil }
