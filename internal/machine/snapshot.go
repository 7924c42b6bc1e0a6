// CPU/memory snapshotting for shadow execution: the DBT's -selfcheck mode
// runs each freshly translated block once on a copy of the machine state
// and compares its effects against the TCG interpreter's, so a snapshot
// must capture everything generated code can read or write — including,
// under weak mode, the store buffers and the chooser's cursor.

package machine

import "fmt"

// WeakSnapshot captures the weak-memory mode's state: every CPU's pending
// store buffer, the global store sequence counter, and the chooser's
// serialized cursor (present only when a chooser is installed).
type WeakSnapshot struct {
	Buffers map[int][]PendingStore
	NextSeq uint64
	Cursor  []byte
	// HasCursor distinguishes "no chooser installed" from "chooser with an
	// empty cursor".
	HasCursor bool
}

// Snapshot is a deep copy of the machine's memory plus one CPU's state,
// taken at a block boundary.
type Snapshot struct {
	// Mem is a private copy of the full memory (guest data and code cache
	// alike — shadow runs fetch generated code from it).
	Mem []byte
	// CPU is the copied register state. The exclusive monitor is cleared:
	// a block boundary is never inside an exclusive sequence.
	CPU CPU
	// Weak is the weak-memory state, non-nil iff weak mode was enabled at
	// snapshot time. (Earlier revisions silently dropped store buffers
	// here, making weak-mode replay unsound.)
	Weak *WeakSnapshot
}

// SnapshotErr deep-copies the machine memory and c's state. Under weak
// mode it also captures every store buffer and the chooser cursor; a
// chooser that cannot serialize its cursor (not a CursorChooser) makes the
// snapshot unrepresentable and is reported as an error rather than being
// dropped on the floor.
func (m *Machine) SnapshotErr(c *CPU) (*Snapshot, error) {
	s := &Snapshot{Mem: append([]byte(nil), m.Mem...), CPU: *c}
	s.CPU.monValid = false
	if m.weak != nil {
		w := &WeakSnapshot{Buffers: make(map[int][]PendingStore), NextSeq: m.weak.nextSeq}
		for id, buf := range m.weak.buffers {
			if len(buf) > 0 {
				w.Buffers[id] = append([]PendingStore(nil), buf...)
			}
		}
		if m.chooser != nil {
			cc, ok := m.chooser.(CursorChooser)
			if !ok {
				return nil, fmt.Errorf("machine: snapshot under weak mode: chooser %T has no serializable cursor", m.chooser)
			}
			cur, err := cc.Cursor()
			if err != nil {
				return nil, fmt.Errorf("machine: snapshot under weak mode: %w", err)
			}
			w.Cursor, w.HasCursor = cur, true
		}
		s.Weak = w
	}
	return s, nil
}

// Snapshot is SnapshotErr for callers whose machine is known
// snapshot-safe; it panics on un-serializable state (the loud failure the
// silent buffer drop used to hide).
func (m *Machine) Snapshot(c *CPU) *Snapshot {
	s, err := m.SnapshotErr(c)
	if err != nil {
		panic(err)
	}
	return s
}

// ShadowMachine builds a fresh single-CPU machine over the snapshot state,
// for deterministic shadow execution: no injector, no weak-memory mode, no
// observability, no watchdogs — just the sequentially consistent
// interpreter over the copied memory. If the snapshot CPU had buffered
// stores, they are applied (in order) to a private memory copy first: the
// shadow must see that CPU's own view, in which its stores have already
// happened. The caller installs its own Syscall and OnBLR hooks and bounds
// execution via Run's maxSteps.
func (s *Snapshot) ShadowMachine() *Machine {
	cpu := s.CPU
	cpu.ID = 0
	cpu.Halted = false
	mem := s.Mem
	if s.Weak != nil && len(s.Weak.Buffers[s.CPU.ID]) > 0 {
		mem = append([]byte(nil), s.Mem...)
		for _, p := range s.Weak.Buffers[s.CPU.ID] {
			for i := uint8(0); i < p.Size; i++ {
				mem[p.Addr+uint64(i)] = byte(p.Val >> (8 * i))
			}
		}
	}
	return &Machine{
		Mem:       mem,
		CPUs:      []*CPU{&cpu},
		Cost:      DefaultCost(),
		lineOwner: make(map[uint64]int),
	}
}

// Restore writes the snapshot back into m and c — the inverse of Snapshot,
// for callers that executed destructively on the live machine. The CPU's
// identity is preserved; the predecoded host stream is dropped because
// memory (including the code cache) is rewritten wholesale. Weak-mode state
// (buffers, sequence counter, chooser cursor) is restored when the
// snapshot carries it; restoring a weak snapshot onto a machine whose mode
// or chooser cannot accept it is a programming error and panics.
func (m *Machine) Restore(c *CPU, s *Snapshot) {
	copy(m.Mem, s.Mem)
	id := c.ID
	*c = s.CPU
	c.ID = id
	m.InvalidateDecodeCache()
	if s.Weak == nil {
		if m.weak != nil {
			// Snapshot predates weak mode: no store was buffered then.
			m.weak.buffers = make(map[int][]PendingStore)
		}
		return
	}
	if m.weak == nil {
		panic(fmt.Errorf("machine: restoring weak-mode snapshot onto a machine without weak mode"))
	}
	m.weak.buffers = make(map[int][]PendingStore)
	for cid, buf := range s.Weak.Buffers {
		m.weak.buffers[cid] = append([]PendingStore(nil), buf...)
	}
	m.weak.nextSeq = s.Weak.NextSeq
	if s.Weak.HasCursor {
		cc, ok := m.chooser.(CursorChooser)
		if !ok {
			panic(fmt.Errorf("machine: restoring chooser cursor onto chooser %T without one", m.chooser))
		}
		if err := cc.Seek(s.Weak.Cursor); err != nil {
			panic(fmt.Errorf("machine: restoring chooser cursor: %w", err))
		}
	}
}
