package machine

import (
	"fmt"
	"strings"

	"repro/internal/faults"
)

// Native syscall ABI for Arm programs built with internal/isa/arm's
// assembler (the "native" series of the benchmarks): syscall number in X8,
// arguments in X0..X2, result in X0 — mirroring the Linux arm64 convention.
//
// Translated guest programs do NOT use these numbers: the DBT runtime in
// internal/core installs its own handler that reads the *guest* register
// file (see core's syscall dispatch).
const (
	// SysExit halts the calling CPU; X0 is the exit code.
	SysExit = 93
	// SysWrite appends Mem[X0:X0+X1] to Machine.Output.
	SysWrite = 64
	// SysSpawn starts a new CPU at PC=X0 with X0=arg(X1) and the stack
	// pointer register (X27 by convention) set to X2. Returns the CPU id.
	SysSpawn = 220
	// SysJoin blocks until CPU X0 halts (see Machine.Join). Returns the
	// target's exit code.
	SysJoin = 221
)

// NativeSyscall is the Machine.Syscall handler implementing the native ABI.
func NativeSyscall(m *Machine, c *CPU, imm uint16) error {
	switch c.Regs[8] {
	case SysExit:
		c.ExitCode = c.Regs[0]
		c.Halted = true
		return nil
	case SysWrite:
		ptr, n := c.Regs[0], c.Regs[1]
		if err := m.check(ptr, 1); n > 0 && err != nil {
			return err
		}
		if ptr+n > uint64(len(m.Mem)) {
			return fmt.Errorf("write syscall: range [%#x,+%d) out of bounds", ptr, n)
		}
		m.Output = append(m.Output, m.Mem[ptr:ptr+n]...)
		c.Regs[0] = n
		return nil
	case SysSpawn:
		nc := m.AddCPU()
		nc.PC = c.Regs[0]
		nc.Regs[0] = c.Regs[1]
		nc.Regs[27] = c.Regs[2] // stack pointer convention
		c.Regs[0] = uint64(nc.ID)
		return nil
	case SysJoin:
		return m.Join(c, c.Regs[0], 0)
	default:
		return fmt.Errorf("native syscall: unknown number %d (svc #%d)", c.Regs[8], imm)
	}
}

// Join implements every runtime's join syscall: c waits for CPU target to
// halt and then receives its exit code in Regs[dst]. A halted target
// delivers at once; otherwise c parks, like a futex wait, and RunAll wakes
// it, filling Regs[dst], once the target has halted. A parked CPU
// executes nothing and accrues no cycles. Joining synchronizes with the
// target's exit, so c's weak-mode store buffer drains first: a parked CPU
// must not hold stores another thread is waiting on.
func (m *Machine) Join(c *CPU, target uint64, dst int) error {
	if target >= uint64(len(m.CPUs)) {
		return fmt.Errorf("join: no cpu %d", target)
	}
	if err := m.FlushWeak(c); err != nil {
		return err
	}
	t := m.CPUs[target]
	if t.Halted {
		c.Regs[dst] = t.ExitCode
		return nil
	}
	c.joinOn, c.joinDst = t, dst
	return nil
}

// wake reports whether c may run: not halted, and not parked in a join
// whose target is still live. A join whose target has halted completes
// here.
func wake(c *CPU) bool {
	if c.Halted {
		return false
	}
	if t := c.joinOn; t != nil {
		if !t.Halted {
			return false
		}
		c.Regs[c.joinDst] = t.ExitCode
		c.joinOn = nil
	}
	return true
}

// deadlockTrap reports that no CPU can run although some have not halted:
// every live CPU is parked in a join that can never complete. It names
// the first such CPU but no PC, as no instruction is at fault.
func (m *Machine) deadlockTrap() error {
	var waits []string
	first := -1
	for _, c := range m.CPUs {
		if c.Halted {
			continue
		}
		if first < 0 {
			first = c.ID
		}
		waits = append(waits, fmt.Sprintf("cpu %d joins cpu %d", c.ID, c.joinOn.ID))
	}
	return faults.New(faults.TrapDeadlock, "every live cpu is blocked: %s",
		strings.Join(waits, ", ")).WithCPU(first)
}
