package core

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/faults"
	"repro/internal/frontend"
	"repro/internal/isa/x86"
	"repro/internal/machine"
	"repro/internal/tcg"
)

// Guest syscall numbers (in guest RAX; arguments in RDI, RSI, RDX). The
// numbers mirror the native ABI in internal/machine for convenience.
const (
	GuestSysExit  = 93
	GuestSysWrite = 64
	GuestSysSpawn = 220
	GuestSysJoin  = 221
	GuestSysAlloc = 222
)

// handleBLR intercepts helper calls emitted by the backend (BLR into the
// HelperBase region). Helper arguments arrive in X18/X28 per the backend
// convention; results return in X18. Guest registers are read and written
// directly through their host-register mapping.
func (rt *Runtime) handleBLR(m *machine.Machine, c *machine.CPU, target uint64) (bool, error) {
	h, size, ok := backend.HelperOf(target)
	if !ok {
		return false, nil
	}
	rt.met.helperCalls.Inc()

	arg0 := c.Regs[18]
	arg1 := c.Regs[28]

	switch h {
	case tcg.HelperCmpXchg:
		// old = *(addr); if old == RAX { *(addr) = new }. The helper body
		// (GCC __atomic builtin) performs a casal on the host (§3.1,
		// GCC ≥ 10 behaviour).
		c.Cycles += helperBodyCost
		m.ChargeAtomic(c, arg0)
		expected := *guestReg(c, x86.RAX)
		old, err := m.ReadMem(arg0, size)
		if err != nil {
			return true, err
		}
		if old == truncateTo(expected, size) {
			if err := m.WriteMem(arg0, size, arg1); err != nil {
				return true, err
			}
		}
		c.Regs[18] = old
		return true, nil

	case tcg.HelperXAdd:
		c.Cycles += helperBodyCost
		m.ChargeAtomic(c, arg0)
		old, err := m.ReadMem(arg0, size)
		if err != nil {
			return true, err
		}
		if err := m.WriteMem(arg0, size, old+arg1); err != nil {
			return true, err
		}
		c.Regs[18] = old
		return true, nil

	case tcg.HelperXchg:
		c.Cycles += helperBodyCost
		m.ChargeAtomic(c, arg0)
		old, err := m.ReadMem(arg0, size)
		if err != nil {
			return true, err
		}
		if err := m.WriteMem(arg0, size, arg1); err != nil {
			return true, err
		}
		c.Regs[18] = old
		return true, nil

	case frontend.HelperSyscall:
		rt.met.syscalls.Inc()
		return true, rt.guestSyscall(m, c)
	}
	return false, faults.New(faults.TrapHostCall,
		"core: unknown helper %d (target %#x)", h, target).WithCPU(c.ID)
}

// guestSyscall implements the guest OS interface. User-mode emulation
// executes syscalls natively on the host (§2.2); here "the host" is the
// simulated machine's runtime.
func (rt *Runtime) guestSyscall(m *machine.Machine, c *machine.CPU) error {
	nr := *guestReg(c, x86.RAX)
	a0 := *guestReg(c, x86.RDI)
	a1 := *guestReg(c, x86.RSI)
	a2 := *guestReg(c, x86.RDX)

	switch nr {
	case GuestSysExit:
		// Thread exit synchronizes (a joiner must observe the thread's
		// writes), so drain any weak-mode store buffer.
		if err := m.FlushWeak(c); err != nil {
			return err
		}
		c.ExitCode = a0
		c.Halted = true
		return nil

	case GuestSysWrite:
		// Both operands are guest-controlled: compare without a0+a1,
		// which can wrap.
		if a1 > uint64(len(m.Mem)) || a0 > uint64(len(m.Mem))-a1 {
			return fmt.Errorf("guest write: [%#x,+%d) out of bounds", a0, a1)
		}
		m.Output = append(m.Output, m.Mem[a0:a0+a1]...)
		*guestReg(c, x86.RAX) = a1
		return nil

	case GuestSysSpawn:
		// a0 = guest function, a1 = argument (→ RDI); the runtime
		// allocates the stack itself.
		_ = a2
		nc := m.AddCPU()
		*guestReg(nc, x86.RDI) = a1
		*guestReg(nc, x86.RSP) = rt.newStack()
		if err := rt.startThread(nc, a0); err != nil {
			return err
		}
		*guestReg(c, x86.RAX) = uint64(nc.ID)
		return nil

	case GuestSysJoin:
		id := a0
		if id >= uint64(len(m.CPUs)) {
			return fmt.Errorf("guest join: no cpu %d", id)
		}
		t := m.CPUs[id]
		if !t.Halted {
			// Re-execute the helper BLR: point the link register back at
			// the BLR itself so the scheduler retries next quantum, and
			// refund the call cost — a blocked join is a futex wait. The
			// retry is not a fresh guest syscall, so uncount it.
			c.Regs[30] = c.PC
			if c.Cycles >= m.Cost.Call {
				c.Cycles -= m.Cost.Call
			}
			rt.met.syscalls.Sub(1)
			rt.met.helperCalls.Sub(1)
			return nil
		}
		*guestReg(c, x86.RAX) = t.ExitCode
		return nil

	case GuestSysAlloc:
		// The heap grows up toward the stacks, keeping one stack of
		// headroom per CPU. Checking the unrounded size too catches a
		// guest size whose rounding wraps to a small n.
		var free uint64
		reserve := uint64(len(m.CPUs)) * rt.cfg.StackSize
		if reserve < rt.stackCur && rt.heapCur < rt.stackCur-reserve {
			free = rt.stackCur - reserve - rt.heapCur
		}
		n := (a0 + 0xF) &^ 0xF
		if a0 >= free || n >= free {
			return fmt.Errorf("guest alloc: heap exhausted")
		}
		addr := rt.heapCur
		rt.heapCur += n
		*guestReg(c, x86.RAX) = addr
		return nil
	}
	return fmt.Errorf("guest syscall: unknown number %d", nr)
}

func truncateTo(v uint64, size uint8) uint64 {
	if size >= 8 {
		return v
	}
	return v & (1<<(8*size) - 1)
}
