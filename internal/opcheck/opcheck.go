// Package opcheck bridges the repository's two views of weak memory: it
// compiles litmus programs to native Arm code, executes them on the
// simulated machine's operational weak-memory mode across many seeds, and
// checks that every outcome actually observed is admitted by the
// Armed-Cats axiomatic model — the soundness direction of the
// operational/axiomatic correspondence. (Completeness against the broad
// architectural models cannot hold: the store-buffer machine deliberately
// models only the store-side relaxations. internal/models/opref is the
// exact axiomatic twin of the machine, and internal/explore measures
// two-sided coverage against it over this package's compiler.)
package opcheck

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/guestimg"
	"repro/internal/isa/arm"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/memmodel"
)

// ErrUnsupported marks programs outside the compilable subset (exotic
// access attributes, out-of-range immediates). Campaign drivers
// distinguish "this test cannot run operationally" (errors.Is
// ErrUnsupported → skip) from a genuine compile/execution failure.
var ErrUnsupported = errors.New("opcheck: unsupported operation")

// Layout constants for compiled litmus programs.
const (
	textBase   = 0x1000
	locBase    = 0x8000 // shared locations, 8 bytes each
	resultBase = 0x9000 // per-thread result slots
	maskBase   = 0xA000 // per-thread executed-register masks
	memSize    = 1 << 16
)

// maxImm12 bounds the immediates CmpI/ORRI can encode.
const maxImm12 = 0xFFF

// Compiled is a litmus program lowered to native Arm threads.
type Compiled struct {
	img     *guestimg.Image
	entries []uint64
	// regSlots maps (thread, register) to its result slot address;
	// regBits maps it to its bit in the thread's executed mask.
	regSlots map[string]uint64
	regBits  map[string]int
	locAddrs map[litmus.Loc]uint64
	program  *litmus.Program
}

// Program returns the litmus program this was compiled from.
func (c *Compiled) Program() *litmus.Program { return c.program }

func maskAddr(t int) uint64 { return maskBase + uint64(t)*8 }

// threadCompiler carries the per-thread lowering state.
//
// Register plan: litmus registers get X9..X20; X1 is the value scratch,
// X2 the address scratch, X3 the epilogue spin counter, X4 the
// executed-register mask, X5..X8 CAS/index temporaries. The mask mirrors
// litmus.OutcomeOf exactly: a register appears in the outcome iff the
// statement that assigns it actually executed (an If body not taken
// leaves its registers out), so each assignment ORs the register's bit
// into X4 and the epilogue publishes the mask beside the result slots.
type threadCompiler struct {
	c       *Compiled
	a       *arm.Assembler
	t       int
	regMap  map[litmus.Reg]arm.Reg
	regKeys []string
	nextReg arm.Reg
	labels  int
	slotCur *uint64
}

func (tc *threadCompiler) newLabel() string {
	tc.labels++
	return fmt.Sprintf("t%dl%d", tc.t, tc.labels)
}

func (tc *threadCompiler) allocReg(r litmus.Reg) (arm.Reg, error) {
	if hw, ok := tc.regMap[r]; ok {
		return hw, nil
	}
	if tc.nextReg > arm.X20 {
		return 0, fmt.Errorf("opcheck: thread %d: too many registers", tc.t)
	}
	hw := tc.nextReg
	tc.nextReg++
	tc.regMap[r] = hw
	key := fmt.Sprintf("%d:%s", tc.t, r)
	tc.regKeys = append(tc.regKeys, key)
	tc.c.regSlots[key] = *tc.slotCur
	tc.c.regBits[key] = int(hw - arm.X9)
	*tc.slotCur += 8
	return hw, nil
}

// markAssigned records into the executed mask that hw's litmus register
// was assigned on this path.
func (tc *threadCompiler) markAssigned(hw arm.Reg) {
	tc.a.Raw(arm.Inst{Op: arm.ORRI, Rd: arm.X4, Rn: arm.X4, Imm: 1 << (hw - arm.X9)})
}

// selectLoc materializes Loc0/Loc1 chosen by the low bit of idx into X2.
func (tc *threadCompiler) selectLoc(idx arm.Reg, loc0, loc1 litmus.Loc) {
	join := tc.newLabel()
	tc.a.AndI(arm.X5, idx, 1)
	tc.a.MovImm(arm.X2, tc.c.locAddrs[loc0])
	tc.a.CbzLabel(arm.X5, join)
	tc.a.MovImm(arm.X2, tc.c.locAddrs[loc1])
	tc.a.Label(join)
}

func (tc *threadCompiler) compileOps(ops []litmus.Op) error {
	a, t := tc.a, tc.t
	for _, op := range ops {
		switch o := op.(type) {
		case litmus.Store:
			if o.Acq || o.AcqPC || o.SC {
				return fmt.Errorf("%w: store attrs on thread %d", ErrUnsupported, t)
			}
			a.MovImm(arm.X2, tc.c.locAddrs[o.Loc])
			a.MovImm(arm.X1, uint64(o.Val))
			if o.Rel {
				a.Stlr(arm.X1, arm.X2)
			} else {
				a.Str(arm.X1, arm.X2, 0, 8)
			}
		case litmus.StoreReg:
			hw, ok := tc.regMap[o.Src]
			if !ok {
				return fmt.Errorf("opcheck: thread %d stores undefined reg %s", t, o.Src)
			}
			if o.Acq || o.AcqPC || o.SC {
				return fmt.Errorf("%w: store attrs on thread %d", ErrUnsupported, t)
			}
			a.MovImm(arm.X2, tc.c.locAddrs[o.Loc])
			if o.Rel {
				a.Stlr(hw, arm.X2)
			} else {
				a.Str(hw, arm.X2, 0, 8)
			}
		case litmus.Load:
			if o.Rel || o.SC {
				return fmt.Errorf("%w: load attrs on thread %d", ErrUnsupported, t)
			}
			hw, err := tc.allocReg(o.Dst)
			if err != nil {
				return err
			}
			a.MovImm(arm.X2, tc.c.locAddrs[o.Loc])
			tc.emitLoad(hw, o.Attr)
			tc.markAssigned(hw)
		case litmus.LoadIdx:
			if o.Rel || o.SC {
				return fmt.Errorf("%w: load attrs on thread %d", ErrUnsupported, t)
			}
			hwIdx, ok := tc.regMap[o.Idx]
			if !ok {
				return fmt.Errorf("opcheck: thread %d indexes undefined reg %s", t, o.Idx)
			}
			hw, err := tc.allocReg(o.Dst)
			if err != nil {
				return err
			}
			tc.selectLoc(hwIdx, o.Loc0, o.Loc1)
			tc.emitLoad(hw, o.Attr)
			tc.markAssigned(hw)
		case litmus.StoreIdx:
			if o.Acq || o.AcqPC || o.SC {
				return fmt.Errorf("%w: store attrs on thread %d", ErrUnsupported, t)
			}
			hwIdx, ok := tc.regMap[o.Idx]
			if !ok {
				return fmt.Errorf("opcheck: thread %d indexes undefined reg %s", t, o.Idx)
			}
			tc.selectLoc(hwIdx, o.Loc0, o.Loc1)
			a.MovImm(arm.X1, uint64(o.Val))
			if o.Rel {
				a.Stlr(arm.X1, arm.X2)
			} else {
				a.Str(arm.X1, arm.X2, 0, 8)
			}
		case litmus.CAS:
			if err := tc.compileCAS(o); err != nil {
				return err
			}
		case litmus.Fence:
			// The shared StoreFlush classification keeps compiler, machine
			// and op-ref model agreeing on which fences drain the buffer:
			// store-side fences lower to DMB ISH(ST), pure load-side ones
			// to DMB ISHLD (an operational no-op — loads are in order).
			switch {
			case o.K == memmodel.FenceDMBFF:
				a.Dmb(arm.BarrierFull)
			case o.K == memmodel.FenceDMBLD:
				a.Dmb(arm.BarrierLoad)
			case o.K == memmodel.FenceDMBST:
				a.Dmb(arm.BarrierStore)
			case o.K.StoreFlush():
				a.Dmb(arm.BarrierFull)
			default:
				a.Dmb(arm.BarrierLoad)
			}
		case litmus.MovImm:
			hw, err := tc.allocReg(o.Dst)
			if err != nil {
				return err
			}
			a.MovImm(hw, uint64(o.Val))
			tc.markAssigned(hw)
		case litmus.If:
			hw, ok := tc.regMap[o.Reg]
			if !ok {
				return fmt.Errorf("opcheck: thread %d branches on undefined reg %s", t, o.Reg)
			}
			if o.Val < 0 || o.Val > maxImm12 {
				return fmt.Errorf("%w: If immediate %d", ErrUnsupported, o.Val)
			}
			skip := tc.newLabel()
			a.CmpI(hw, o.Val)
			// Branch around the body when the condition is false.
			cond := arm.EQ
			if o.Eq {
				cond = arm.NE
			}
			a.BCondLabel(cond, skip)
			if err := tc.compileOps(o.Body); err != nil {
				return err
			}
			a.Label(skip)
		default:
			return fmt.Errorf("%w: %T", ErrUnsupported, op)
		}
	}
	return nil
}

// emitLoad loads [X2] into hw with the access's acquire flavour.
func (tc *threadCompiler) emitLoad(hw arm.Reg, attr litmus.Attr) {
	switch {
	case attr.Acq:
		tc.a.Ldar(hw, arm.X2)
	case attr.AcqPC:
		tc.a.Raw(arm.Inst{Op: arm.LDAPR, Rd: hw, Rn: arm.X2, Size: 8})
	default:
		tc.a.Ldr(hw, arm.X2, 0, 8)
	}
}

// compileCAS lowers a litmus CAS: the amo class to a single CAS/CASAL,
// the lxsx class to a load/store-exclusive retry loop — mirroring the two
// RMW families of §2.4. X5 carries expect-in/old-out, X6 the new value,
// X7 the comparison copy, X8 the exclusive status.
func (tc *threadCompiler) compileCAS(o litmus.CAS) error {
	a := tc.a
	a.MovImm(arm.X2, tc.c.locAddrs[o.Loc])
	a.MovImm(arm.X5, uint64(o.Expect))
	a.MovImm(arm.X6, uint64(o.New))
	switch o.Class {
	case memmodel.RMWLxSx:
		retry, done := tc.newLabel(), tc.newLabel()
		a.Mov(arm.X7, arm.X5)
		a.Label(retry)
		ld := arm.LDXR
		if o.Acq || o.AcqPC || o.SC {
			ld = arm.LDAXR
		}
		a.Raw(arm.Inst{Op: ld, Rd: arm.X5, Rn: arm.X2, Size: 8})
		a.Cmp(arm.X5, arm.X7)
		a.BCondLabel(arm.NE, done)
		st := arm.STXR
		if o.Rel || o.SC {
			st = arm.STLXR
		}
		a.Raw(arm.Inst{Op: st, Rd: arm.X8, Rm: arm.X6, Rn: arm.X2, Size: 8})
		a.CbnzLabel(arm.X8, retry)
		a.Label(done)
	default: // amo (single-instruction CAS), the RMW1 family
		op := arm.CAS
		if o.Acq || o.AcqPC || o.Rel || o.SC {
			op = arm.CASAL
		}
		a.Raw(arm.Inst{Op: op, Rd: arm.X5, Rm: arm.X6, Rn: arm.X2, Size: 8})
	}
	if o.Dst != "" {
		hw, err := tc.allocReg(o.Dst)
		if err != nil {
			return err
		}
		a.Mov(hw, arm.X5)
		tc.markAssigned(hw)
	}
	return nil
}

// Compile lowers a litmus program to one Arm code sequence per thread.
// Loaded registers are written to result slots — and the executed-register
// mask to the thread's mask slot — before the thread halts.
func Compile(p *litmus.Program) (*Compiled, error) {
	c := &Compiled{
		regSlots: make(map[string]uint64),
		regBits:  make(map[string]int),
		locAddrs: make(map[litmus.Loc]uint64),
		program:  p,
	}
	for i, loc := range p.Locations() {
		c.locAddrs[loc] = locBase + uint64(i)*8
	}

	a := arm.NewAssembler()
	slotCur := uint64(resultBase)
	for t, ops := range p.Threads {
		label := fmt.Sprintf("t%d", t)
		a.Label(label)
		tc := &threadCompiler{
			c: c, a: a, t: t,
			regMap:  make(map[litmus.Reg]arm.Reg),
			nextReg: arm.X9,
			slotCur: &slotCur,
		}
		a.MovImm(arm.X4, 0)
		if err := tc.compileOps(ops); err != nil {
			return nil, err
		}
		// Publish loaded registers in sorted key order (determinism: the
		// instruction stream must be a pure function of the program, or
		// recorded exploration traces would not replay across processes),
		// then the executed mask, and halt.
		keys := append([]string(nil), tc.regKeys...)
		sort.Strings(keys)
		for _, key := range keys {
			r := litmus.Reg(key[strings.IndexByte(key, ':')+1:])
			a.MovImm(arm.X2, c.regSlots[key])
			a.Str(tc.regMap[r], arm.X2, 0, 8)
		}
		a.MovImm(arm.X2, maskAddr(t))
		a.Str(arm.X4, arm.X2, 0, 8)
		// Busy-wait a little so buffered stores drain on the random
		// schedule rather than only at the synchronizing halt.
		spin := fmt.Sprintf("t%dspin", t)
		a.MovImm(arm.X3, 0).
			Label(spin).
			AddI(arm.X3, arm.X3, 1).
			CmpI(arm.X3, 48).
			BCondLabel(arm.NE, spin).
			Hlt()
	}

	code, syms, err := a.Assemble(textBase)
	if err != nil {
		return nil, err
	}
	c.img = &guestimg.Image{Segments: []guestimg.Segment{{Addr: textBase, Data: code}}, Symbols: syms}
	for t := range p.Threads {
		c.entries = append(c.entries, syms[fmt.Sprintf("t%d", t)])
	}
	return c, nil
}

// NewMachine builds a fresh weak-mode machine with the program loaded and
// one CPU per thread parked at its entry. The chooser drives the drain
// (and optionally scheduling) nondeterminism; nil disables automatic
// drains entirely, the regime exploration drivers use.
func (c *Compiled) NewMachine(ch machine.Chooser) (*machine.Machine, error) {
	m := machine.New(memSize)
	if err := c.img.Load(m.Mem); err != nil {
		return nil, err
	}
	m.EnableWeakMode(ch)
	for t, entry := range c.entries {
		cpu := m.CPUs[0]
		if t > 0 {
			cpu = m.AddCPU()
		}
		cpu.PC = entry
	}
	return m, nil
}

// Outcome renders the machine's final state in the canonical litmus key
// format (registers then memory). Callers must have drained the store
// buffers (FlushAllWeak) first. Registers whose assignment did not execute
// (untaken If bodies) are excluded via the per-thread executed masks,
// matching litmus.OutcomeOf.
func (c *Compiled) Outcome(m *machine.Machine) (litmus.Outcome, error) {
	masks := make([]uint64, len(c.program.Threads))
	for t := range masks {
		v, err := m.ReadMem(maskAddr(t), 8)
		if err != nil {
			return "", err
		}
		masks[t] = v
	}
	keys := make([]string, 0, len(c.regSlots))
	for k := range c.regSlots {
		keys = append(keys, k)
	}
	// Sort by thread then register name, matching outcomeOf's order.
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		t, err := strconv.Atoi(k[:strings.IndexByte(k, ':')])
		if err != nil {
			return "", err
		}
		if masks[t]&(1<<c.regBits[k]) == 0 {
			continue
		}
		v, err := m.ReadMem(c.regSlots[k], 8)
		if err != nil {
			return "", err
		}
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	for _, loc := range c.program.Locations() {
		v, err := m.ReadMem(c.locAddrs[loc], 8)
		if err != nil {
			return "", err
		}
		parts = append(parts, fmt.Sprintf("%s=%d", loc, v))
	}
	return litmus.Outcome(strings.Join(parts, " ")), nil
}

// RunSeed executes the compiled program once in weak mode and returns the
// outcome in the canonical litmus key format (registers then memory).
func (c *Compiled) RunSeed(seed int64, quantum int) (litmus.Outcome, error) {
	m, err := c.NewMachine(machine.NewRandomChooser(seed, 48))
	if err != nil {
		return "", err
	}
	if err := m.RunAll(quantum, 1_000_000); err != nil {
		return "", err
	}
	if err := m.FlushAllWeak(); err != nil {
		return "", err
	}
	return c.Outcome(m)
}

// Observe runs seeds 0..n-1 over a few quanta and collects the distinct
// observed outcomes.
func (c *Compiled) Observe(n int) (litmus.OutcomeSet, error) {
	out := make(litmus.OutcomeSet)
	for _, q := range []int{1, 2, 8} {
		for seed := 0; seed < n; seed++ {
			o, err := c.RunSeed(int64(seed), q)
			if err != nil {
				return nil, err
			}
			out[o] = true
		}
	}
	return out, nil
}

// CheckSound verifies that every operationally observed outcome of p is
// admitted by model m, returning the offending outcomes (empty = sound).
// The admitted set is enumerated through the process-wide cache by
// default; extra litmus options append after it (last wins), so campaign
// drivers can substitute a bounded per-test cache.
func CheckSound(p *litmus.Program, m memmodel.Model, seeds int, opts ...litmus.Option) ([]litmus.Outcome, error) {
	c, err := Compile(p)
	if err != nil {
		return nil, err
	}
	observed, err := c.Observe(seeds)
	if err != nil {
		return nil, err
	}
	all := append([]litmus.Option{litmus.WithCache(litmus.DefaultCache)}, opts...)
	admitted, err := litmus.Enumerate(p, m, all...)
	if err != nil {
		return nil, fmt.Errorf("opcheck: enumerating %q under %s: %w", p.Name, m.Name(), err)
	}
	var bad []litmus.Outcome
	for o := range observed {
		if !admitted[o] {
			bad = append(bad, o)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	return bad, nil
}
