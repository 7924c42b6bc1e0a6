package machine

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/isa/arm"
)

// Tests for the predecoded host stream (decode.go): what Step executes
// after code rewrites, which PCs bypass the table, and what it allocates.

// putWord stores one raw instruction word at addr.
func putWord(m *Machine, addr uint64, w uint32) {
	for i := uint64(0); i < arm.InstBytes; i++ {
		m.Mem[addr+i] = byte(w >> (8 * i))
	}
}

// putInst encodes inst and stores it at addr.
func putInst(t *testing.T, m *Machine, addr uint64, inst arm.Inst) {
	t.Helper()
	w, err := arm.Encode(inst)
	if err != nil {
		t.Fatal(err)
	}
	putWord(m, addr, w)
}

// rerun restarts c at pc and runs it to its halt.
func rerun(t *testing.T, m *Machine, c *CPU, pc uint64) {
	t.Helper()
	c.PC, c.Halted = pc, false
	if err := m.Run(c, 1000); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeCacheInvalidation patches an executed exit SVC into a direct
// branch, as TB chaining does: after InvalidateDecodeAt the branch runs.
// Without the invalidation the stale SVC keeps running, which is why the
// DBT's patch sites must call the hook.
func TestDecodeCacheInvalidation(t *testing.T) {
	m, c := freshCPU(t)
	svcs := 0
	m.Syscall = func(*Machine, *CPU, uint16) error { svcs++; return nil }
	putInst(t, m, 0x1000, arm.Inst{Op: arm.MOVZ, Rd: 1, Imm: 1})
	putInst(t, m, 0x1004, arm.Inst{Op: arm.SVC, Imm: 1})
	putInst(t, m, 0x1008, arm.Inst{Op: arm.HLT})
	putInst(t, m, 0x1010, arm.Inst{Op: arm.MOVZ, Rd: 2, Imm: 9})
	putInst(t, m, 0x1014, arm.Inst{Op: arm.HLT})
	rerun(t, m, c, 0x1000)
	if svcs != 1 {
		t.Fatalf("svcs = %d, want 1", svcs)
	}

	putInst(t, m, 0x1004, arm.Inst{Op: arm.B, Off: 3})
	rerun(t, m, c, 0x1000)
	if svcs != 2 || c.Regs[2] != 0 {
		t.Fatalf("unreported patch: svcs = %d, X2 = %d; want the stale SVC (2, 0)", svcs, c.Regs[2])
	}

	m.InvalidateDecodeAt(0x1004)
	rerun(t, m, c, 0x1000)
	if svcs != 2 || c.Regs[2] != 9 {
		t.Fatalf("after InvalidateDecodeAt: svcs = %d, X2 = %d; want the branch (2, 9)", svcs, c.Regs[2])
	}
}

// TestDecodeLeafRewrite rewrites every word of an executed leaf and
// checks InvalidateDecodeCache makes Step decode them afresh.
func TestDecodeLeafRewrite(t *testing.T) {
	m, c := freshCPU(t)
	const base = 0x1000
	fill := func(imm int64) {
		for i := uint64(0); i < decodeLeafSlots-1; i++ {
			putInst(t, m, base+i*arm.InstBytes, arm.Inst{Op: arm.ADDI, Rd: 1, Rn: 1, Imm: imm})
		}
		putInst(t, m, base+(decodeLeafSlots-1)*arm.InstBytes, arm.Inst{Op: arm.HLT})
	}
	fill(1)
	rerun(t, m, c, base)
	if c.Regs[1] != decodeLeafSlots-1 {
		t.Fatalf("X1 = %d, want %d", c.Regs[1], decodeLeafSlots-1)
	}
	fill(2)
	m.InvalidateDecodeCache()
	c.Regs[1] = 0
	rerun(t, m, c, base)
	if c.Regs[1] != 2*(decodeLeafSlots-1) {
		t.Fatalf("after InvalidateDecodeCache X1 = %d, want %d", c.Regs[1], 2*(decodeLeafSlots-1))
	}
}

// TestDecodeRestoreAfterRewrite executes code written after a snapshot,
// restores the snapshot and checks the restored code runs, not the
// predecoded copy of the overwritten one.
func TestDecodeRestoreAfterRewrite(t *testing.T) {
	m, c := freshCPU(t)
	putInst(t, m, 0x1000, arm.Inst{Op: arm.MOVZ, Rd: 1, Imm: 5})
	putInst(t, m, 0x1004, arm.Inst{Op: arm.HLT})
	c.PC = 0x1000
	snap := m.Snapshot(c)

	putInst(t, m, 0x1000, arm.Inst{Op: arm.MOVZ, Rd: 1, Imm: 6})
	rerun(t, m, c, 0x1000)
	if c.Regs[1] != 6 {
		t.Fatalf("rewritten code: X1 = %d, want 6", c.Regs[1])
	}

	m.Restore(c, snap)
	if err := m.Run(c, 1000); err != nil {
		t.Fatal(err)
	}
	if c.Regs[1] != 5 {
		t.Fatalf("after Restore: X1 = %d, want the restored code's 5", c.Regs[1])
	}
}

// TestDecodeMisalignedBR branches to a PC that is not a multiple of four.
// Such PCs bypass the table: the words at the odd address decode and run
// as they always did, and invalidating one is a no-op.
func TestDecodeMisalignedBR(t *testing.T) {
	m, c := freshCPU(t)
	putInst(t, m, 0x1000, arm.Inst{Op: arm.BR, Rn: 3})
	putInst(t, m, 0x1102, arm.Inst{Op: arm.MOVZ, Rd: 1, Imm: 7})
	putInst(t, m, 0x1106, arm.Inst{Op: arm.HLT})
	c.Regs[3] = 0x1102
	rerun(t, m, c, 0x1000)
	if c.Regs[1] != 7 || c.PC != 0x1106 {
		t.Fatalf("X1 = %d, PC = %#x; want 7 at a halt on 0x1106", c.Regs[1], c.PC)
	}
	m.InvalidateDecodeAt(0x1102)
	c.Regs[1] = 0
	rerun(t, m, c, 0x1000)
	if c.Regs[1] != 7 {
		t.Fatalf("second run: X1 = %d, want 7", c.Regs[1])
	}
}

// TestDecodeMemoryEnd fetches the last word of memory and checks that a
// fetch straddling or past the end traps TrapUnmapped as a fetch fault.
func TestDecodeMemoryEnd(t *testing.T) {
	m, c := freshCPU(t)
	end := uint64(len(m.Mem))
	putInst(t, m, end-arm.InstBytes, arm.Inst{Op: arm.HLT})
	rerun(t, m, c, end-arm.InstBytes)

	for _, pc := range []uint64{end - 2, end, ^uint64(0) - 3} {
		c.PC, c.Halted = pc, false
		err := m.Step(c)
		tr, ok := faults.As(err)
		if !ok || tr.Kind != faults.TrapUnmapped || !strings.Contains(err.Error(), "fetch:") {
			t.Fatalf("pc %#x: err = %v, want a fetch: TrapUnmapped", pc, err)
		}
		if tr.CPU != c.ID || tr.PC != pc {
			t.Fatalf("pc %#x: trap attributed to cpu%d pc %#x", pc, tr.CPU, tr.PC)
		}
	}
}

// TestDecodeUndecodableNeverCached checks an undecodable word traps on
// every execution and leaves no valid slot behind: a valid instruction
// written there later runs without any invalidation.
func TestDecodeUndecodableNeverCached(t *testing.T) {
	m, c := freshCPU(t)
	putWord(m, 0x1000, 0xFF000000)
	for i := 0; i < 2; i++ {
		c.PC = 0x1000
		if tr, ok := faults.As(m.Step(c)); !ok || tr.Kind != faults.TrapDecode {
			t.Fatalf("execution %d: want TrapDecode, got %v", i+1, tr)
		}
	}
	putInst(t, m, 0x1000, arm.Inst{Op: arm.HLT})
	rerun(t, m, c, 0x1000)
}

// TestDecodeSmallProgramOneLeaf runs a short program on a small machine,
// the opcheck and explore shape, and checks it pays for one leaf.
func TestDecodeSmallProgramOneLeaf(t *testing.T) {
	m, c := freshCPU(t)
	for i := uint64(0); i < 10; i++ {
		putInst(t, m, 0x1000+i*arm.InstBytes, arm.Inst{Op: arm.ADDI, Rd: 1, Rn: 1, Imm: 1})
	}
	putInst(t, m, 0x1000+10*arm.InstBytes, arm.Inst{Op: arm.HLT})
	rerun(t, m, c, 0x1000)
	if n := len(m.decoded.leaves); n != 1 {
		t.Fatalf("leaves = %d, want 1", n)
	}
	if n := len(m.decoded.dir); n != len(m.Mem)>>decodeLeafShift {
		t.Fatalf("directory entries = %d, want %d", n, len(m.Mem)>>decodeLeafShift)
	}
}
