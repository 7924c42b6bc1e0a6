package litmusgen

import (
	"fmt"

	"repro/internal/litmus"
	"repro/internal/memmodel"
)

// A shape proto is the undecorated skeleton of a relaxation cycle: per
// thread, an ordered list of plain accesses. Communication edges (rf, fr,
// co between threads) are implied by which locations the accesses share;
// the decoration pass then enumerates what sits on the po edges between
// consecutive accesses and on the accesses themselves.
type acc struct {
	write bool
	loc   int
	val   int64
}

type proto struct {
	// name identifies the instance ("mp2", "sb3", "corr", ...).
	name string
	// family is the Config.Shapes key that selects it.
	family string
	accs   [][]acc
}

// ShapeNames lists every cycle family the generator knows, in canonical
// order: the four N-thread ring families, the two fixed 2-thread shapes,
// and the coherence family.
func ShapeNames() []string {
	return []string{"mp", "sb", "lb", "2+2w", "s", "r", "co"}
}

// ValidShapes rejects unknown family names (for CLI flag validation).
func ValidShapes(names []string) error {
	known := make(map[string]bool)
	for _, n := range ShapeNames() {
		known[n] = true
	}
	for _, n := range names {
		if !known[n] {
			return fmt.Errorf("litmusgen: unknown shape %q (known: %v)", n, ShapeNames())
		}
	}
	return nil
}

// protos expands the configured families into concrete shape instances, in
// deterministic order. Ring families get one instance per thread count in
// [MinThreads, MaxThreads]; thread counts are clamped to [2, 8].
func protos(cfg Config) []proto {
	lo, hi := cfg.MinThreads, cfg.MaxThreads
	if lo < 2 {
		lo = 2
	}
	if hi > 8 {
		hi = 8
	}
	var out []proto
	for _, fam := range cfg.Shapes {
		switch fam {
		case "mp", "sb", "lb", "2+2w":
			for n := lo; n <= hi; n++ {
				out = append(out, ringProto(fam, n))
			}
		case "s":
			out = append(out, proto{name: "s", family: "s", accs: [][]acc{
				{{write: true, loc: 0, val: 2}, {write: true, loc: 1, val: 1}},
				{{write: false, loc: 1}, {write: true, loc: 0, val: 1}},
			}})
		case "r":
			out = append(out, proto{name: "r", family: "r", accs: [][]acc{
				{{write: true, loc: 0, val: 1}, {write: true, loc: 1, val: 1}},
				{{write: true, loc: 1, val: 2}, {write: false, loc: 0}},
			}})
		case "co":
			out = append(out,
				proto{name: "corr", family: "co", accs: [][]acc{
					{{write: true, loc: 0, val: 1}},
					{{write: false, loc: 0}, {write: false, loc: 0}},
				}},
				proto{name: "coww", family: "co", accs: [][]acc{
					{{write: true, loc: 0, val: 1}, {write: true, loc: 0, val: 2}},
					{{write: false, loc: 0}, {write: false, loc: 0}},
				}},
				proto{name: "corw", family: "co", accs: [][]acc{
					{{write: false, loc: 0}, {write: true, loc: 0, val: 1}},
					{{write: true, loc: 0, val: 2}},
				}})
		}
	}
	return out
}

// ringProto builds the n-thread generalization of a classic 2-thread cycle.
func ringProto(fam string, n int) proto {
	p := proto{name: fmt.Sprintf("%s%d", fam, n), family: fam}
	p.accs = make([][]acc, n)
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		switch fam {
		case "mp":
			// T0 publishes data then flag; middle threads relay the flag;
			// the last thread reads the flag then the data. n=2 is classic
			// message passing, n=3 is the ISA2 pattern.
			switch {
			case i == 0:
				p.accs[i] = []acc{{write: true, loc: 0, val: 1}, {write: true, loc: 1, val: 1}}
			case i == n-1:
				p.accs[i] = []acc{{write: false, loc: i}, {write: false, loc: 0}}
			default:
				p.accs[i] = []acc{{write: false, loc: i}, {write: true, loc: i + 1, val: 1}}
			}
		case "sb":
			// Each thread writes its own location then reads its neighbour's.
			p.accs[i] = []acc{{write: true, loc: i, val: 1}, {write: false, loc: next}}
		case "lb":
			// Each thread reads its own location then writes its neighbour's.
			p.accs[i] = []acc{{write: false, loc: i}, {write: true, loc: next, val: 1}}
		case "2+2w":
			// Each thread writes 2 to its own location and 1 to its
			// neighbour's: a pure-write coherence cycle.
			p.accs[i] = []acc{{write: true, loc: i, val: 2}, {write: true, loc: next, val: 1}}
		}
	}
	return p
}

// locName maps a location index to its canonical name.
func locName(i int) litmus.Loc {
	names := []litmus.Loc{"X", "Y", "Z", "U", "V", "W"}
	if i < len(names) {
		return names[i]
	}
	return litmus.Loc(fmt.Sprintf("L%d", i))
}

// ---- Decoration space ---------------------------------------------------

// Gap decorations sit on the po edge between two consecutive accesses of a
// thread: nothing, a fence (level-specific flavours), or a syntactic
// dependency from the nearest preceding read into the later access.
const (
	gapNone      = iota
	gapFenceFull // MFENCE (x86) or DMB ISH (arm)
	gapFenceLD   // DMB ISHLD (arm only)
	gapFenceST   // DMB ISHST (arm only)
	gapDepAddr   // address dependency (loadidx/storeidx)
	gapDepData   // data dependency (storereg) — into writes only
	gapDepCtrl   // control dependency (always-true if over the read)
)

// Event decorations change how one access is emitted.
const (
	evPlain = iota
	evAcq   // acquire load (arm reads)
	evAcqPC // acquirePC load (arm reads)
	evRel   // release store (arm writes)
	evRMW   // the access becomes a CAS (locked CAS at x86, casal at arm)
)

func gapChoices(lvl Level) []int {
	if lvl == LevelArm {
		return []int{gapNone, gapFenceFull, gapFenceLD, gapFenceST, gapDepAddr, gapDepData, gapDepCtrl}
	}
	return []int{gapNone, gapFenceFull, gapDepAddr, gapDepData, gapDepCtrl}
}

func evChoices(lvl Level, write bool) []int {
	if lvl == LevelArm {
		if write {
			return []int{evPlain, evRel, evRMW}
		}
		return []int{evPlain, evAcq, evAcqPC, evRMW}
	}
	return []int{evPlain, evRMW}
}

// threadDecor is one thread's resolved decoration assignment: gaps[i] sits
// between access i and i+1, evs[j] decorates access j. Values are the gap*/
// ev* constants, not choice indices.
type threadDecor struct {
	gaps []int
	evs  []int
}

// enumerateDecors walks the decoration space of one proto at one level in a
// fixed deterministic order, yielding every valid assignment. When
// maxPerShape > 0 and the space is larger than ~4× the cap, enumeration
// strides through the linear index space so the visited subset spans the
// whole space instead of its first corner (the ×4 headroom absorbs
// validity filtering and downstream fingerprint dedup). Stops early when
// yield returns false.
func enumerateDecors(pr proto, lvl Level, maxPerShape int, yield func([]threadDecor) bool) {
	gc := gapChoices(lvl)

	// Flat mixed-radix slot list, thread-major: t0 gaps, t0 evs, t1 gaps, …
	type slot struct {
		thread  int
		isGap   bool
		idx     int
		choices []int
	}
	var slots []slot
	total := 1
	for t, accs := range pr.accs {
		for g := 0; g < len(accs)-1; g++ {
			slots = append(slots, slot{thread: t, isGap: true, idx: g, choices: gc})
			total *= len(gc)
		}
		for j, a := range accs {
			ec := evChoices(lvl, a.write)
			slots = append(slots, slot{thread: t, idx: j, choices: ec})
			total *= len(ec)
		}
	}

	stride := 1
	if maxPerShape > 0 && total > maxPerShape*4 {
		stride = total / (maxPerShape * 4)
	}

	d := make([]threadDecor, len(pr.accs))
	for t, accs := range pr.accs {
		d[t] = threadDecor{gaps: make([]int, len(accs)-1), evs: make([]int, len(accs))}
	}

	for i := 0; i < total; i += stride {
		rest := i
		for _, s := range slots {
			c := s.choices[rest%len(s.choices)]
			rest /= len(s.choices)
			if s.isGap {
				d[s.thread].gaps[s.idx] = c
			} else {
				d[s.thread].evs[s.idx] = c
			}
		}
		if !validDecor(pr, d) {
			continue
		}
		if !yield(d) {
			return
		}
	}
}

// validDecor filters decoration assignments that cannot be expressed:
// dependency gaps need a preceding read to depend on, data dependencies
// only target writes, and address/data dependencies cannot feed a CAS.
func validDecor(pr proto, d []threadDecor) bool {
	for t, accs := range pr.accs {
		for g, choice := range d[t].gaps {
			switch choice {
			case gapDepAddr, gapDepData, gapDepCtrl:
				hasRead := false
				for i := 0; i <= g; i++ {
					if !accs[i].write {
						hasRead = true
						break
					}
				}
				if !hasRead {
					return false
				}
				if choice == gapDepData && !accs[g+1].write {
					return false
				}
				if choice != gapDepCtrl && d[t].evs[g+1] == evRMW {
					return false
				}
			}
		}
	}
	return true
}

// ---- Program construction ----------------------------------------------

// build materializes one decorated proto as a litmus program. Register
// names are assigned per thread in read order (r0, r1, …); dependency
// decorations draw from the nearest preceding read's register. The
// program name encodes shape, level and the decoration index so campaign
// records stay greppable; structural identity is the Fingerprint.
func build(pr proto, lvl Level, d []threadDecor) (*litmus.Program, bool) {
	hasRMW := false
	p := &litmus.Program{Name: progName(pr, lvl, d)}
	for t, accs := range pr.accs {
		// regOf[j] is the register access j loads into (reads only).
		regOf := make([]litmus.Reg, len(accs))
		n := 0
		for j, a := range accs {
			if !a.write {
				regOf[j] = litmus.Reg(fmt.Sprintf("r%d", n))
				n++
			}
		}
		// prevReg(j) is the register of the nearest read before access j.
		prevReg := func(j int) litmus.Reg {
			for i := j - 1; i >= 0; i-- {
				if !accs[i].write {
					return regOf[i]
				}
			}
			return "" // unreachable: validDecor requires a preceding read
		}

		emit := func(j int) litmus.Op {
			a := accs[j]
			loc := locName(a.loc)
			gapBefore := gapNone
			if j > 0 {
				gapBefore = d[t].gaps[j-1]
			}
			ev := d[t].evs[j]
			if a.write {
				if ev == evRMW {
					hasRMW = true
					attr := litmus.Attr{Class: memmodel.RMWAmo}
					if lvl == LevelArm {
						attr.Acq, attr.Rel = true, true
					}
					return litmus.CAS{Loc: loc, Expect: 0, New: a.val, Attr: attr}
				}
				attr := litmus.Attr{Rel: ev == evRel}
				switch gapBefore {
				case gapDepData:
					return litmus.StoreReg{Loc: loc, Src: prevReg(j), Attr: attr}
				case gapDepAddr:
					return litmus.StoreIdx{Idx: prevReg(j), Loc0: loc, Loc1: loc, Val: a.val, Attr: attr}
				default:
					return litmus.Store{Loc: loc, Val: a.val, Attr: attr}
				}
			}
			if ev == evRMW {
				hasRMW = true
				attr := litmus.Attr{Class: memmodel.RMWAmo}
				if lvl == LevelArm {
					attr.Acq, attr.Rel = true, true
				}
				// An identity CAS: succeeds (writing the value back) when
				// the location holds 1, otherwise reads like a plain load.
				return litmus.CAS{Loc: loc, Expect: 1, New: 1, Dst: regOf[j], Attr: attr}
			}
			attr := litmus.Attr{Acq: ev == evAcq, AcqPC: ev == evAcqPC}
			if gapBefore == gapDepAddr {
				return litmus.LoadIdx{Dst: regOf[j], Idx: prevReg(j), Loc0: loc, Loc1: loc, Attr: attr}
			}
			return litmus.Load{Dst: regOf[j], Loc: loc, Attr: attr}
		}

		// rec builds accesses start.. into an op list; a control-dependency
		// gap wraps the remainder of the thread in an always-true if over
		// the dependency register (values are never negative).
		var rec func(start int, applyGap bool) []litmus.Op
		rec = func(start int, applyGap bool) []litmus.Op {
			var ops []litmus.Op
			for j := start; j < len(accs); j++ {
				if j > 0 && (j > start || applyGap) {
					switch d[t].gaps[j-1] {
					case gapFenceFull:
						k := memmodel.FenceMFENCE
						if lvl == LevelArm {
							k = memmodel.FenceDMBFF
						}
						ops = append(ops, litmus.Fence{K: k})
					case gapFenceLD:
						ops = append(ops, litmus.Fence{K: memmodel.FenceDMBLD})
					case gapFenceST:
						ops = append(ops, litmus.Fence{K: memmodel.FenceDMBST})
					case gapDepCtrl:
						return append(ops, litmus.If{
							Reg: prevReg(j), Eq: false, Val: -1,
							Body: rec(j, false),
						})
					}
				}
				ops = append(ops, emit(j))
			}
			return ops
		}
		p.Threads = append(p.Threads, rec(0, true))
	}
	return p, hasRMW
}

// progName encodes shape, level and decoration digits into a compact,
// deterministic test name.
func progName(pr proto, lvl Level, d []threadDecor) string {
	name := fmt.Sprintf("g.%s.%s", pr.name, lvl)
	for t := range d {
		name += fmt.Sprintf(".t%d", t)
		for _, g := range d[t].gaps {
			name += fmt.Sprintf("g%d", g)
		}
		for _, e := range d[t].evs {
			name += fmt.Sprintf("e%d", e)
		}
	}
	return name
}
