// Package machine simulates the multi-core Arm host that Risotto-Go's
// generated code runs on. It interprets the internal/isa/arm instruction
// set over a flat little-endian memory, with:
//
//   - a per-instruction cycle cost model (see cost.go) standing in for the
//     ThunderX2 of the paper's testbed — fence and atomic costs follow the
//     relative magnitudes reported by Liu et al. [51];
//   - per-CPU exclusive monitors for LDXR/STXR;
//   - a cache-line ownership model that charges a transfer penalty to
//     atomics contending on a line another CPU touched last (Figure 15's
//     contention behaviour);
//   - a deterministic round-robin scheduler interleaving the CPUs, so
//     guest threads genuinely race;
//   - SVC and BLR hooks through which the DBT runtime (internal/core)
//     implements guest syscalls and helper calls.
//
// The interpreter executes sequentially consistently; weak-memory
// *ordering* effects are studied axiomatically (internal/models) and
// operationally via the store-buffer mode in weak.go, while this fast mode
// is used for all performance experiments.
package machine

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/isa/arm"
	"repro/internal/obs"
)

// Machine is one simulated host: memory plus a set of CPUs.
type Machine struct {
	// Mem is the flat physical memory, shared by all CPUs.
	Mem []byte
	// CPUs holds every CPU ever started; halted ones stay in place.
	CPUs []*CPU
	// Cost is the cycle cost table.
	Cost CostTable

	// StepBudget, when non-zero, bounds each CPU's executed instruction
	// count: a CPU that reaches it without halting makes RunAll return a
	// structured faults.TrapBudget — the watchdog that halts runaway or
	// livelocked guests instead of spinning forever.
	StepBudget uint64
	// Deadline, when non-zero, is a wall-clock watchdog for RunAll,
	// measured from its invocation.
	Deadline time.Duration
	// Inject, when non-nil, forces traps at instrumented sites (memory
	// accesses, scheduler quanta) for fault-matrix testing.
	Inject *faults.Injector

	// Syscall handles SVC instructions. The PC has already been advanced
	// past the SVC; a handler that must block calls Join.
	Syscall func(m *Machine, c *CPU, imm uint16) error
	// OnBLR, when non-nil, may intercept BLR targets (the DBT uses this
	// for helper calls and host-library dispatch). If it reports handled,
	// the branch is suppressed and execution continues at the link
	// address.
	OnBLR func(m *Machine, c *CPU, target uint64) (handled bool, err error)

	// Output accumulates bytes written via the write syscall.
	Output []byte

	// DMBExec counts executed barriers by flavour (indexed by
	// arm.Barrier) — the *dynamic* fence counts behind the fence-share
	// numbers, complementing the DBT's static per-block statistics.
	DMBExec [3]uint64
	// AtomicExec counts executed single-copy atomics.
	AtomicExec uint64

	// lineOwner tracks which CPU last performed an atomic on each
	// 64-byte line, for the contention penalty.
	lineOwner map[uint64]int

	// decoded is the predecoded host stream Step fetches through (see
	// decode.go).
	decoded decodeTable

	// weak, when non-nil, enables the operational weak-memory mode
	// (store buffers with out-of-order drain; see weak.go).
	weak *weakState
	// chooser resolves the machine's nondeterministic choices (scheduler
	// pick, store-buffer drains); see chooser.go. Nil falls back to the
	// deterministic round-robin with no automatic drains.
	chooser Chooser

	// accLog, when enabled, records every memory access executed — the
	// footprint DPOR needs to decide which transitions commute.
	accLog   []MemAccess
	accLogOn bool

	// sc/quanta are the observability hooks installed by SetObs: quanta
	// is bumped once per scheduler quantum (one atomic add per `quantum`
	// instructions, cheap enough for the hot loop), and the dynamic
	// execution counters are published as gauges when RunAll returns.
	sc     *obs.Scope
	quanta *obs.Counter
}

// CPU is one simulated hardware thread.
type CPU struct {
	// ID indexes the CPU in Machine.CPUs.
	ID int
	// Regs are X0..X30; index 31 is XZR and must be read as 0 via reg().
	Regs [arm.NumRegs]uint64
	// PC is the program counter.
	PC uint64
	// NZCV condition flags.
	N, Z, C, V bool
	// Cycles accumulates the cost of executed instructions.
	Cycles uint64
	// Insts counts executed instructions.
	Insts uint64
	// Halted is set by HLT or an exit syscall.
	Halted bool
	// ExitCode is the value passed to the exit syscall.
	ExitCode uint64

	// joinOn, when non-nil, is the CPU this one is parked on (see Join);
	// its exit code goes to Regs[joinDst] on wake-up.
	joinOn  *CPU
	joinDst int

	// Exclusive monitor state.
	monAddr  uint64
	monSize  uint8
	monValid bool
}

// New creates a machine with memSize bytes of memory and one CPU.
func New(memSize int) *Machine {
	m := &Machine{
		Mem:       make([]byte, memSize),
		Cost:      DefaultCost(),
		lineOwner: make(map[uint64]int),
	}
	m.AddCPU()
	return m
}

// SetObs points the machine's instrumentation at root's "machine" child
// scope: scheduler quanta are counted under "machine.sched.quanta", and
// RunAll publishes the dynamic execution counters (instructions, atomics,
// per-flavour DMBs, CPU count) as gauges on exit. Nil-scope safe.
func (m *Machine) SetObs(root *obs.Scope) {
	m.sc = root.Child("machine")
	m.quanta = m.sc.Counter("sched.quanta")
}

// publishObs mirrors the dynamic execution counters into gauges.
func (m *Machine) publishObs() {
	if m.sc == nil {
		return
	}
	m.sc.Gauge("insts").Set(int64(m.TotalInsts()))
	m.sc.Gauge("atomics").Set(int64(m.AtomicExec))
	m.sc.Gauge("dmb_exec.full").Set(int64(m.DMBExec[arm.BarrierFull]))
	m.sc.Gauge("dmb_exec.load").Set(int64(m.DMBExec[arm.BarrierLoad]))
	m.sc.Gauge("dmb_exec.store").Set(int64(m.DMBExec[arm.BarrierStore]))
	m.sc.Gauge("cpus").Set(int64(len(m.CPUs)))
}

// AddCPU starts a new (halted=false, PC=0) CPU and returns it.
func (m *Machine) AddCPU() *CPU {
	c := &CPU{ID: len(m.CPUs)}
	m.CPUs = append(m.CPUs, c)
	return c
}

// SetChooser installs (or, with nil, removes) the machine's chooser
// without touching weak mode: useful for randomized scheduling over the
// sequentially consistent interpreter. EnableWeakMode overwrites it.
func (m *Machine) SetChooser(ch Chooser) { m.chooser = ch }

// MemAccess is one executed memory access. Local marks accesses satisfied
// entirely inside a CPU's private store buffer (buffered stores, forwarded
// loads): they are invisible to other CPUs, so dependence analysis ignores
// them. Instruction fetches are never recorded.
type MemAccess struct {
	Addr  uint64
	Size  uint8
	Write bool
	Local bool
}

// RecordAccesses toggles the memory-access log. Enabling clears any
// previous log.
func (m *Machine) RecordAccesses(on bool) {
	m.accLogOn = on
	m.accLog = m.accLog[:0]
}

// TakeAccesses returns the accesses recorded since the last call (or since
// RecordAccesses) and resets the log.
func (m *Machine) TakeAccesses() []MemAccess {
	out := append([]MemAccess(nil), m.accLog...)
	m.accLog = m.accLog[:0]
	return out
}

// record appends to the access log when enabled; free otherwise.
func (m *Machine) record(addr uint64, size uint8, write, local bool) {
	if m.accLogOn {
		m.accLog = append(m.accLog, MemAccess{Addr: addr, Size: size, Write: write, Local: local})
	}
}

// reg reads a register, honouring XZR.
func (c *CPU) reg(r arm.Reg) uint64 {
	if r == arm.XZR {
		return 0
	}
	return c.Regs[r]
}

// setReg writes a register, honouring XZR.
func (c *CPU) setReg(r arm.Reg, v uint64) {
	if r != arm.XZR {
		c.Regs[r] = v
	}
}

// --- Memory access ---------------------------------------------------------

func (m *Machine) check(addr uint64, size uint8) error {
	if addr+uint64(size) > uint64(len(m.Mem)) || addr+uint64(size) < addr {
		t := faults.New(faults.TrapUnmapped, "access [%#x,+%d) out of bounds (mem %#x)", addr, size, len(m.Mem))
		t.Addr = addr
		return t
	}
	return nil
}

// injectMem consults the injector's memory site, attributing the forced
// trap to addr. Nil-injector calls are free.
func (m *Machine) injectMem(addr uint64) error {
	if m.Inject == nil {
		return nil
	}
	if t := m.Inject.Hit(faults.SiteMemory); t != nil {
		t.Addr = addr
		return t
	}
	return nil
}

// ReadMem loads size bytes (1/2/4/8) at addr, zero-extended.
func (m *Machine) ReadMem(addr uint64, size uint8) (uint64, error) {
	if err := m.injectMem(addr); err != nil {
		return 0, err
	}
	if err := m.check(addr, size); err != nil {
		return 0, err
	}
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(m.Mem[addr+uint64(i)]) << (8 * i)
	}
	m.record(addr, size, false, false)
	return v, nil
}

// WriteMem stores the low size bytes of v at addr.
func (m *Machine) WriteMem(addr uint64, size uint8, v uint64) error {
	if err := m.injectMem(addr); err != nil {
		return err
	}
	if err := m.check(addr, size); err != nil {
		return err
	}
	for i := uint8(0); i < size; i++ {
		m.Mem[addr+uint64(i)] = byte(v >> (8 * i))
	}
	m.clearMonitors(addr, size)
	m.record(addr, size, true, false)
	return nil
}

// clearMonitors invalidates any exclusive monitor overlapping [addr, +size).
func (m *Machine) clearMonitors(addr uint64, size uint8) {
	for _, c := range m.CPUs {
		if c.monValid && overlap(addr, uint64(size), c.monAddr, uint64(c.monSize)) {
			c.monValid = false
		}
	}
}

func overlap(a, alen, b, blen uint64) bool {
	return a < b+blen && b < a+alen
}

// ChargeAtomic charges the base atomic cost plus any contention transfer
// penalty, for runtime helpers that perform atomics outside generated code.
func (m *Machine) ChargeAtomic(c *CPU, addr uint64) {
	c.Cycles += m.Cost.Atomic + m.atomicTouch(c, addr)
}

// atomicTouch charges the contention penalty for an atomic on addr and
// records the new line owner. Returns extra cycles.
func (m *Machine) atomicTouch(c *CPU, addr uint64) uint64 {
	m.AtomicExec++
	line := addr >> 6
	owner, seen := m.lineOwner[line]
	m.lineOwner[line] = c.ID
	if seen && owner != c.ID {
		return m.Cost.AtomicTransfer
	}
	return 0
}

// --- Flags -------------------------------------------------------------------

func (c *CPU) setFlagsSub(a, b uint64) uint64 {
	res := a - b
	c.N = int64(res) < 0
	c.Z = res == 0
	c.C = a >= b
	c.V = (int64(a) < 0) != (int64(b) < 0) && (int64(res) < 0) != (int64(a) < 0)
	return res
}

func (c *CPU) cond(cc arm.Cond) bool {
	switch cc {
	case arm.EQ:
		return c.Z
	case arm.NE:
		return !c.Z
	case arm.LT:
		return c.N != c.V
	case arm.LE:
		return c.Z || c.N != c.V
	case arm.GT:
		return !c.Z && c.N == c.V
	case arm.GE:
		return c.N == c.V
	case arm.LO:
		return !c.C
	case arm.LS:
		return !c.C || c.Z
	case arm.HI:
		return c.C && !c.Z
	case arm.HS:
		return c.C
	}
	return false
}

// --- Scheduling ---------------------------------------------------------------

// Step executes one instruction on c. Halted CPUs, and CPUs parked in a
// join whose target is still live, are a no-op.
func (m *Machine) Step(c *CPU) error {
	if !wake(c) {
		return nil
	}
	inst := m.decoded.lookup(c.PC)
	if inst == nil {
		var err error
		if inst, err = m.fill(c); err != nil {
			return err
		}
	}
	if err := m.exec(c, inst); err != nil {
		return err
	}
	if m.weak != nil {
		return m.weakMaybeDrain(c)
	}
	return nil
}

// Run executes a single CPU until it halts or maxSteps elapse. A CPU
// that halts on its maxSteps-th step has not exhausted the budget.
func (m *Machine) Run(c *CPU, maxSteps uint64) error {
	for i := uint64(0); !c.Halted; i++ {
		if i == maxSteps {
			return budgetTrap(c, maxSteps, "step budget %d exhausted", maxSteps)
		}
		if err := m.Step(c); err != nil {
			return err
		}
	}
	return nil
}

// RunAll interleaves every runnable CPU round-robin, quantum instructions
// at a time, until all halt or a budget expires: the per-machine maxSteps,
// the per-CPU StepBudget, or the wall-clock Deadline. Budget expiry
// returns a structured faults.TrapBudget, so a runaway or livelocked guest
// degrades to a typed, reportable halt instead of an unbounded spin. CPUs
// added during execution (spawn) join the rotation. A CPU parked in a join
// ends its quantum at once and is skipped until its target halts; if
// every live CPU is parked, RunAll returns a faults.TrapDeadlock. An
// installed Chooser may override each quantum's CPU pick (NextCPU -1
// keeps the round-robin).
func (m *Machine) RunAll(quantum int, maxSteps uint64) (err error) {
	if quantum <= 0 {
		quantum = 64
	}
	defer func() {
		m.publishObs()
		if err != nil {
			m.sc.Event("machine.trap", err.Error(), -1, 0, 0)
		}
	}()
	var start time.Time
	if m.Deadline > 0 {
		start = time.Now()
	}
	var total uint64
	var runnable []int
	rr := 0 // round-robin cursor: next CPU ID to consider
	for {
		runnable = runnable[:0]
		live := false
		for _, c := range m.CPUs {
			live = live || !c.Halted
			if wake(c) {
				runnable = append(runnable, c.ID)
			}
		}
		if len(runnable) == 0 {
			if live {
				return m.deadlockTrap()
			}
			return nil
		}
		// The chooser may pick any runnable CPU; -1 (or no chooser) falls
		// back to the deterministic round-robin the machine always had.
		var c *CPU
		if m.chooser != nil {
			if id := m.chooser.NextCPU(runnable); id >= 0 {
				if id >= len(m.CPUs) || !wake(m.CPUs[id]) {
					return fmt.Errorf("machine: chooser picked unrunnable CPU %d", id)
				}
				c = m.CPUs[id]
			}
		}
		if c == nil {
			// First runnable CPU with ID >= rr, wrapping: identical order
			// to the historical pass over m.CPUs, and CPUs spawned
			// mid-run join as the cursor reaches them.
			for _, id := range runnable {
				if id >= rr {
					c = m.CPUs[id]
					break
				}
			}
			if c == nil {
				c = m.CPUs[runnable[0]]
			}
			rr = c.ID + 1
		}
		m.quanta.Inc()
		if t := m.Inject.Hit(faults.SiteStep); t != nil {
			t.Steps = c.Insts
			return t.WithCPU(c.ID).WithHostPC(c.PC)
		}
		for q := 0; q < quantum && !c.Halted && c.joinOn == nil; q++ {
			if err := m.Step(c); err != nil {
				return err
			}
			total++
			if total > maxSteps {
				return budgetTrap(c, total, "machine step budget %d exhausted", maxSteps)
			}
			if m.StepBudget != 0 && c.Insts >= m.StepBudget && !c.Halted {
				return budgetTrap(c, c.Insts, "per-CPU step budget %d exhausted", m.StepBudget)
			}
			// The wall-clock watchdog is polled every 1024 steps: cheap
			// enough for the hot loop, tight enough to bound a hang.
			if m.Deadline > 0 && total&0x3FF == 0 && time.Since(start) > m.Deadline {
				return budgetTrap(c, total, "wall-clock deadline %v exceeded", m.Deadline)
			}
		}
	}
}

// budgetTrap builds the structured watchdog result for c.
func budgetTrap(c *CPU, steps uint64, format string, args ...any) error {
	t := faults.New(faults.TrapBudget, format, args...)
	t.Steps = steps
	return t.WithCPU(c.ID).WithHostPC(c.PC)
}

// MaxCycles returns the largest per-CPU cycle count — the simulated elapsed
// time of a parallel phase.
func (m *Machine) MaxCycles() uint64 {
	var max uint64
	for _, c := range m.CPUs {
		if c.Cycles > max {
			max = c.Cycles
		}
	}
	return max
}

// TotalInsts returns the instruction count summed over CPUs.
func (m *Machine) TotalInsts() uint64 {
	var n uint64
	for _, c := range m.CPUs {
		n += c.Insts
	}
	return n
}
