package machine

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/isa/arm"
)

// The predecoded host stream: Step fetches each instruction through a
// two-level table instead of decoding the memory word every time. A leaf
// covers 256 bytes of code (64 aligned instruction slots); the directory
// maps PC/256 to a leaf. The directory holds indices rather than pointers,
// so the garbage collector never scans it, and leaves are allocated only
// where code executes: a 64 KiB machine running a short program pays a
// 1 KiB directory and one 2 KiB leaf, a 32 MiB machine a 512 KiB
// directory plus one leaf per 256-byte span of executed code.
//
// The table trusts its callers to report code writes: a cached slot stays
// valid until InvalidateDecodeAt or InvalidateDecodeCache, so a memory
// word rewritten without either keeps executing its old decode.
const (
	decodeLeafShift = 8
	decodeLeafSlots = 1 << decodeLeafShift / arm.InstBytes
)

type decodeSlot struct {
	inst arm.Inst
	ok   bool
}

type decodeLeaf [decodeLeafSlots]decodeSlot

type decodeTable struct {
	// dir[pc>>decodeLeafShift] is 0 (no leaf yet) or 1 + an index into
	// leaves.
	dir    []uint32
	leaves []*decodeLeaf
}

// lookup returns the predecoded instruction at pc, or nil when pc has
// no valid slot. It is small enough to inline into Step; misses go to
// fill.
func (t *decodeTable) lookup(pc uint64) *arm.Inst {
	if i := pc >> decodeLeafShift; pc%arm.InstBytes == 0 && i < uint64(len(t.dir)) && t.dir[i] != 0 {
		if s := &t.leaves[t.dir[i]-1][pc/arm.InstBytes%decodeLeafSlots]; s.ok {
			return &s.inst
		}
	}
	return nil
}

// fill decodes c.PC after a table miss and caches it. Aligned in-bounds
// PCs fill their slot, allocating the directory and the leaf on first
// use; anything else (a misaligned branch target, a fetch past the end of
// memory) is decoded afresh, uncached, and raises the same traps.
func (m *Machine) fill(c *CPU) (*arm.Inst, error) {
	pc := c.PC
	if pc%arm.InstBytes != 0 || pc >= uint64(len(m.Mem)) || uint64(len(m.Mem))-pc < arm.InstBytes {
		inst, err := m.decode(c)
		if err != nil {
			return nil, err
		}
		return &inst, nil
	}
	t := &m.decoded
	if t.dir == nil {
		t.dir = make([]uint32, (len(m.Mem)-1)>>decodeLeafShift+1)
	}
	d := &t.dir[pc>>decodeLeafShift]
	if *d == 0 {
		t.leaves = append(t.leaves, new(decodeLeaf))
		*d = uint32(len(t.leaves))
	}
	inst, err := m.decode(c)
	if err != nil {
		return nil, err
	}
	s := &t.leaves[*d-1][pc/arm.InstBytes%decodeLeafSlots]
	s.inst, s.ok = inst, true
	return &s.inst, nil
}

// decode reads and decodes the word at c.PC without consulting the table.
func (m *Machine) decode(c *CPU) (arm.Inst, error) {
	if err := m.check(c.PC, arm.InstBytes); err != nil {
		return arm.Inst{}, cpuErr(c, fmt.Errorf("fetch: %w", err))
	}
	inst, err := arm.DecodeAt(m.Mem, int(c.PC))
	if err != nil {
		return arm.Inst{}, cpuErr(c, faults.Wrap(faults.TrapDecode, err, "host instruction decode"))
	}
	return inst, nil
}

// InvalidateDecodeCache drops every predecoded instruction. Callers that
// rewrite memory that may already have executed, other than by patching
// single words (see InvalidateDecodeAt), must call it before the next
// Step; the DBT does so when it flushes and recycles its code cache.
// Appending fresh code to never-executed memory needs no invalidation.
func (m *Machine) InvalidateDecodeCache() {
	m.decoded = decodeTable{}
}

// InvalidateDecodeAt drops the predecoded instruction at addr. Callers
// that overwrite one instruction word that may already have executed (TB
// chaining, unchaining, stub installation, injected miscompiles) must call
// it with the word's address before the next Step.
func (m *Machine) InvalidateDecodeAt(addr uint64) {
	t := &m.decoded
	if addr%arm.InstBytes != 0 || addr>>decodeLeafShift >= uint64(len(t.dir)) {
		return
	}
	if d := t.dir[addr>>decodeLeafShift]; d != 0 {
		t.leaves[d-1][addr/arm.InstBytes%decodeLeafSlots].ok = false
	}
}
