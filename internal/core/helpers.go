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
// convention; an RMW helper returns the old value in X18, while the
// syscall helper leaves X18 untouched. Guest registers are read and
// written directly through their host-register mapping.
func (rt *Runtime) handleBLR(m *machine.Machine, c *machine.CPU, target uint64) (bool, error) {
	h, size, ok := backend.HelperOf(target)
	if !ok {
		return false, nil
	}
	old, err := rt.helper(c, h, size, c.Regs[18], c.Regs[28])
	if err == nil && h != frontend.HelperSyscall {
		c.Regs[18] = old
	}
	return true, err
}

// helper runs the body of helper h on c; compiled code (handleBLR) and
// the interpreter tier (interpHelper) share it. The RMW helpers operate
// on size bytes at addr with operand v and return the old memory value;
// their bodies (GCC __atomic builtins) perform one host atomic — a casal
// for CmpXchg (§3.1, GCC ≥ 10 behaviour). The syscall helper reads its
// arguments from the guest registers and returns 0.
func (rt *Runtime) helper(c *machine.CPU, h tcg.Helper, size uint8, addr, v uint64) (uint64, error) {
	rt.met.helperCalls.Inc()
	m := rt.M
	switch h {
	case frontend.HelperSyscall:
		rt.met.syscalls.Inc()
		return 0, rt.guestSyscall(m, c)
	case tcg.HelperCmpXchg, tcg.HelperXAdd, tcg.HelperXchg:
	default:
		return 0, faults.New(faults.TrapHostCall, "core: unknown helper %d", h).WithCPU(c.ID)
	}
	c.Cycles += helperBodyCost
	m.ChargeAtomic(c, addr)
	old, err := m.ReadMem(addr, size)
	if err != nil {
		return 0, err
	}
	switch h {
	case tcg.HelperCmpXchg:
		// old = *(addr); if old == RAX { *(addr) = new }.
		if old != truncateTo(*guestReg(c, x86.RAX), size) {
			return old, nil
		}
	case tcg.HelperXAdd:
		v += old
	}
	return old, m.WriteMem(addr, size, v)
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
		// A blocked join parks the CPU; the syscall ends its block, so
		// the exit code reaches RAX before the joiner runs again.
		return m.Join(c, a0, int(x86.RAX))

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
