// Package core is Risotto-Go's DBT engine — the analogue of the paper's
// modified QEMU (§6). It owns the translation-block cache and execution
// loop, wires the x86 frontend, the TCG optimizer and the Arm backend
// together under a selectable variant (the four setups of §7.1), installs
// the runtime helpers (QEMU-style RMW emulation, guest syscalls), and
// implements the dynamic host library linker (§6.2) and the fast CAS
// translation (§6.3).
package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/backend"
	"repro/internal/faults"
	"repro/internal/frontend"
	"repro/internal/guestimg"
	"repro/internal/hostlib"
	"repro/internal/idl"
	"repro/internal/isa/arm"
	"repro/internal/isa/x86"
	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/selfheal"
	"repro/internal/tcg"
)

// Variant selects one of the evaluation's four DBT setups (§7.1).
type Variant int

const (
	// VariantQemu is vanilla QEMU 6.1.0: leading-fence mapping (Figure 2)
	// and helper-call RMWs.
	VariantQemu Variant = iota
	// VariantNoFences enforces no memory model at all — incorrect, but
	// the oracle for the maximum possible gain from fence optimization.
	VariantNoFences
	// VariantTCGVer is QEMU with Risotto's verified mappings and fence
	// merging (the paper's tcg-ver / tcg-tso).
	VariantTCGVer
	// VariantRisotto is the full system: verified mappings, fence
	// merging, inline CAS translation, and the dynamic host linker.
	VariantRisotto
)

var variantNames = []string{"qemu", "no-fences", "tcg-ver", "risotto"}

func (v Variant) String() string {
	if int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("variant?%d", int(v))
}

// config parameterizes a Runtime. New fills it from options; fields no
// option names keep the defaults newRuntime assigns, and crash-bundle
// replay restores every field a bundle records.
type config struct {
	// Variant selects the DBT setup.
	Variant Variant
	// MemSize is the machine memory size (default 32 MiB).
	MemSize int
	// CodeCacheBase is where generated host code is placed (the upper
	// quarter of memory).
	CodeCacheBase uint64
	// StackSize per guest thread (256 KiB).
	StackSize uint64
	// IDL, when non-empty and the variant is Risotto, enables the host
	// linker for the declared functions.
	IDL string
	// Lib is the host library used by the linker (hostlib.Default() if
	// nil).
	Lib *hostlib.Library
	// Quantum is the round-robin scheduling quantum in instructions.
	Quantum int
	// MaxSteps bounds total executed host instructions (2e9).
	MaxSteps uint64
	// Opt, when non-nil, overrides the variant's optimizer configuration
	// (used by the ablation benchmarks).
	Opt *tcg.OptConfig
	// Chain enables translation-block chaining: a block whose exit
	// target is constant gets its dispatch trap patched into a direct
	// branch to the target block once both are translated (QEMU's
	// goto_tb). Off by default so the calibrated dispatch cost of the
	// evaluation figures stays comparable across variants.
	Chain bool
	// WeakSeed, when non-nil, runs the simulated host in operational
	// weak-memory mode (store buffers with out-of-order drain, seeded by
	// the value) — the generated code's fences then actually constrain
	// visible reorderings. Used by correctness demonstrations, not by the
	// performance figures.
	WeakSeed *int64
	// StepBudget, when non-zero, bounds each vCPU's executed host
	// instructions; a guest that reaches it (runaway loop, livelocked
	// spin) halts with a structured faults.TrapBudget instead of spinning
	// until MaxSteps.
	StepBudget uint64
	// Deadline, when non-zero, is the wall-clock watchdog for Run.
	Deadline time.Duration
	// Inject, when non-nil, arms deterministic fault injection across the
	// stack: frontend decode, code-cache allocation, memory accesses,
	// scheduler quanta, host-linked calls and emitted-code corruption.
	Inject *faults.Injector
	// SelfHeal enables the tiered self-healing layer: a trap attributed
	// to a translated block quarantines it — the block is invalidated in
	// the code cache, its tier demoted one rung (full opts → no fence
	// merging → no opts → TCG interpreter), and execution resumes — with
	// at most MaxHeals recoveries per run. Off by default so the fault
	// matrix keeps pinning every injected fault's undisguised trap.
	SelfHeal bool
	// SelfCheck additionally shadow-executes every freshly translated
	// block once against the TCG interpreter on a snapshot of CPU and
	// memory state, and quarantines the block on any register, memory or
	// exit divergence — runtime translation validation. Implies SelfHeal.
	SelfCheck bool
	// MaxHeals caps quarantine recoveries per run (16 when SelfHeal is
	// on).
	MaxHeals int
	// Kernel, FaultSpec and FaultSeed record run provenance for crash
	// bundles (the CLI inputs that produced this config). They do not
	// affect execution — Inject carries the armed injector itself.
	Kernel    string
	FaultSpec string
	FaultSeed int64
	// Obs, when non-nil, is the observability scope the whole stack
	// reports into: the runtime threads it through the frontend, the
	// optimizer, the backend, the machine and the injector, prefixing its
	// own metrics "core.". When nil, the runtime creates a private scope
	// so Stats() keeps working; pass one to aggregate several subsystems
	// (or to dump metrics) instead.
	Obs *obs.Scope
	// TransCache, when non-nil, is a persistent translation cache
	// (internal/transcache): compiled-tier translations look up
	// post-optimization IR by (PC, tier) before running the frontend and
	// optimizer, and store fresh IR after. Host code is still emitted
	// per-run (it is position-dependent). Ignored when SelfCheck is on —
	// shadow verification needs the pre-optimization oracle IR, which
	// cached entries by design no longer have.
	TransCache TranslationCache
	// TierUp configures the tier-up JIT (tierup.go): when enabled,
	// unpinned blocks start at the cheap TierNoOpt rung and hot ones are
	// promoted to full-tier superblocks by background translation workers.
	TierUp TierUpConfig
}

// TranslationCache is the persistent-translation-cache hook: keys are
// (guest PC, tier) within whatever image/config scope the implementation
// pinned at construction. Implementations must be safe for concurrent use
// and must return blocks the runtime may own (no aliasing with internal
// state).
type TranslationCache interface {
	LoadBlock(pc uint64, tier selfheal.Tier) (*tcg.Block, bool)
	StoreBlock(pc uint64, tier selfheal.Tier, blk *tcg.Block)
}

// Stats is a plain-struct view of the runtime counters (all uint64; the
// historical mix of int and uint64 fields is gone). It is produced by
// Runtime.Stats() from the obs registry — kept as a compatibility façade
// over the metrics under "core.".
type Stats struct {
	Blocks      uint64
	GuestBytes  uint64
	HostInsts   uint64
	DMBFull     uint64
	DMBLoad     uint64
	DMBStore    uint64
	Casal       uint64
	ExclLoop    uint64
	HelperCalls uint64
	HostCalls   uint64
	Syscalls    uint64
	// ChainPatches counts block exits rewritten into direct branches.
	ChainPatches uint64
	// CacheFlushes counts full code-cache flush-and-retranslate cycles
	// taken to recover from cache exhaustion.
	CacheFlushes uint64
	// Quarantines counts blocks quarantined for the first time;
	// Demotions counts tier downgrades (a block demoted twice counts
	// once in Quarantines, twice in Demotions).
	Quarantines uint64
	Demotions   uint64
	// Divergences counts selfcheck shadow runs whose effects disagreed
	// with the TCG interpreter oracle.
	Divergences uint64
	// Heals counts traps absorbed by quarantine-and-retranslate.
	Heals uint64
	// SelfChecks counts shadow verifications performed; InterpBlocks
	// counts interpreter-tier block executions.
	SelfChecks   uint64
	InterpBlocks uint64
	// Promotions counts hot blocks promoted to TierFull by the tier-up
	// JIT; Superblocks counts promotions that stitched more than one
	// guest block, and SuperblockGuestBlocks the blocks they covered.
	Promotions            uint64
	Superblocks           uint64
	SuperblockGuestBlocks uint64
	// CrossBlockFenceMerges counts fences eliminated by merging across
	// block seams inside superblocks — merges the per-block scheme
	// cannot see.
	CrossBlockFenceMerges uint64
}

// tb is one cached translation block.
type tb struct {
	guestPC  uint64
	hostAddr uint64
	codeLen  int
	// tier is the self-healing ladder rung the block was translated at.
	tier selfheal.Tier
	// super is the number of guest blocks this translation covers: 0 or 1
	// for an ordinary block, more for a promoted superblock.
	super int
}

// pltEntry is a host-linked import.
type pltEntry struct {
	sig  idl.Signature
	fn   hostlib.Func
	name string
}

// Runtime is one emulated guest process. Its code-cache tables (tbs,
// chainSites, patched, irCache, interpStubs) are touched only from the
// machine's single execution goroutine — tier-up workers hand results back
// over a channel (tierup.go) — so they are plain maps.
type Runtime struct {
	// M is the underlying simulated host machine.
	M *machine.Machine

	obs *obs.Scope
	met metrics

	cfg        config
	feCfg      frontend.Config
	beCfg      backend.Config
	optCfg     tcg.OptConfig
	tbs        map[uint64]*tb // guest PC → translation block
	codeCursor uint64
	plt        map[uint64]*pltEntry // guest PLT address → host function
	stackCur   uint64
	heapCur    uint64
	img        *guestimg.Image
	// xlat is the tier-translation entry point (translator.go): the bare
	// pipeline, or the caching wrapper when a TransCache is installed;
	// pipe is the underlying pipeline for span attribution.
	xlat Translator
	pipe *pipelineTranslator
	// tierup is the promotion engine (nil unless WithTierUp enabled it).
	tierup *tierUp
	// chainSites maps the host address of a patchable exit SVC to its
	// constant guest target (TB chaining).
	chainSites map[uint64]uint64
	// patched records exit SVCs rewritten into direct branches (host
	// address → guest target), so a cache flush can restore them (chain
	// reset) before recycling the region they branch into.
	patched map[uint64]uint64
	// pinned lists code-cache extents that survived the last flush
	// because a CPU was still executing inside them; the allocator skips
	// them until the next flush re-evaluates liveness.
	pinned []extent

	// heal is the quarantine registry (nil unless SelfHeal); heals counts
	// recoveries consumed against config.MaxHeals.
	heal  *selfheal.State
	heals int
	// irCache holds the frontend IR of interpreter-tier blocks, keyed by
	// guest PC; interpStubs maps each interp stub's host address back to
	// its guest PC (stubs pinned across a cache flush stay resolvable).
	irCache     map[uint64]*tcg.Block
	interpStubs map[uint64]uint64
}

// extent is a half-open host-code byte range [start, end).
type extent struct{ start, end uint64 }

// Costs charged by the runtime on top of the machine's table.
const (
	// helperBodyCost models the helper function's prologue/epilogue and
	// the GCC-built-in wrapper around the atomic (§2.3's extra jumps).
	helperBodyCost = 36
	// marshalBase and marshalPerArg model argument marshaling between
	// guest and host ABIs (§6.2, the math-library overhead of Figure 14).
	marshalBase   = 24
	marshalPerArg = 6
	// translationCostPerByte amortizes translation work.
	translationCostPerByte = 2
)

// guestReg maps a guest register to the host register carrying it.
func guestReg(c *machine.CPU, r x86.Reg) *uint64 { return &c.Regs[int(r)] }

// newRuntime creates a runtime for the given config and loads the image.
// Exported construction goes through New (options.go).
func newRuntime(cfg config, img *guestimg.Image) (*Runtime, error) {
	if cfg.MemSize == 0 {
		cfg.MemSize = 32 << 20
	}
	if cfg.CodeCacheBase == 0 {
		cfg.CodeCacheBase = uint64(cfg.MemSize) * 3 / 4
	}
	if cfg.StackSize == 0 {
		cfg.StackSize = 256 << 10
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 64
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 2_000_000_000
	}
	if cfg.SelfCheck {
		cfg.SelfHeal = true
	}
	if cfg.SelfHeal && cfg.MaxHeals == 0 {
		cfg.MaxHeals = 16
	}
	if cfg.TierUp.Enabled {
		cfg.TierUp = cfg.TierUp.withDefaults()
	}

	scope := cfg.Obs
	if scope == nil {
		scope = obs.NewScope("")
	}
	met := newMetrics(scope)
	rt := &Runtime{
		obs:         scope,
		met:         met,
		cfg:         cfg,
		tbs:         make(map[uint64]*tb),
		plt:         make(map[uint64]*pltEntry),
		chainSites:  make(map[uint64]uint64),
		patched:     make(map[uint64]uint64),
		irCache:     make(map[uint64]*tcg.Block),
		interpStubs: make(map[uint64]uint64),
	}
	// Tier-up needs the registry even without SelfHeal: promotion pins,
	// the blacklist, and demotion of promoted blocks all live there.
	if cfg.SelfHeal || cfg.TierUp.Enabled {
		rt.heal = selfheal.NewState()
	}

	switch cfg.Variant {
	case VariantQemu:
		rt.feCfg = frontend.Config{Scheme: mapping.X86Qemu, CAS: frontend.CASHelper}
		rt.optCfg = tcg.OptConfig{ConstProp: true, AccessElim: true, DeadCode: true}
	case VariantNoFences:
		rt.feCfg = frontend.Config{Scheme: mapping.X86NoFences, CAS: frontend.CASHelper}
		rt.optCfg = tcg.OptConfig{ConstProp: true, AccessElim: true, DeadCode: true}
	case VariantTCGVer:
		rt.feCfg = frontend.Config{Scheme: mapping.X86Verified, CAS: frontend.CASHelper}
		rt.optCfg = tcg.DefaultOpt()
	case VariantRisotto:
		rt.feCfg = frontend.Config{Scheme: mapping.X86Verified, CAS: frontend.CASInline}
		rt.optCfg = tcg.DefaultOpt()
	default:
		return nil, fmt.Errorf("core: unknown variant %d", cfg.Variant)
	}
	if cfg.Opt != nil {
		rt.optCfg = *cfg.Opt
	}
	rt.beCfg = backend.Config{CAS: backend.CASCasal}
	rt.feCfg.Inject = cfg.Inject
	rt.feCfg.Obs = scope
	rt.optCfg.Obs = scope
	rt.beCfg.Obs = scope
	cfg.Inject.SetObs(scope)

	rt.M = machine.New(cfg.MemSize)
	rt.M.SetObs(scope)
	rt.M.Syscall = rt.handleSvc
	rt.M.OnBLR = rt.handleBLR
	rt.M.StepBudget = cfg.StepBudget
	rt.M.Deadline = cfg.Deadline
	rt.M.Inject = cfg.Inject
	if cfg.WeakSeed != nil {
		rt.M.EnableWeakMode(machine.NewRandomChooser(*cfg.WeakSeed, 48))
	}

	// The tier-translation entry point: the pipeline over live guest
	// memory, wrapped by the persistent cache when one is installed
	// (selfcheck bypasses it — cached IR carries no oracle).
	rt.pipe = &pipelineTranslator{
		mem:        rt.M.Mem,
		fe:         rt.feCfg,
		opt:        rt.optCfg,
		keepOracle: cfg.SelfCheck,
		obs:        scope,
		cpu:        -1,
	}
	rt.xlat = rt.pipe
	if cfg.TransCache != nil && !cfg.SelfCheck {
		rt.xlat = &cachingTranslator{inner: rt.pipe, cache: cfg.TransCache}
	}
	if cfg.TierUp.Enabled {
		rt.tierup = newTierUp(rt, cfg.TierUp)
	}

	if err := rt.load(img); err != nil {
		return nil, err
	}
	return rt, nil
}

// load maps the image and prepares linker and allocator state.
func (rt *Runtime) load(img *guestimg.Image) error {
	if err := img.Load(rt.M.Mem); err != nil {
		return err
	}
	rt.img = img
	rt.codeCursor = rt.cfg.CodeCacheBase
	top := img.MaxAddr()
	rt.heapCur = (top + 0xFFF) &^ 0xFFF
	// Stacks grow down from just below the code cache.
	rt.stackCur = rt.cfg.CodeCacheBase &^ 0xF

	// Host linker setup (§6.2, steps 1–2): parse the IDL, match .dynsym
	// imports, index their PLT addresses.
	if rt.cfg.Variant == VariantRisotto && rt.cfg.IDL != "" {
		table, err := idl.ParseTable(rt.cfg.IDL)
		if err != nil {
			return err
		}
		lib := rt.cfg.Lib
		if lib == nil {
			lib = hostlib.Default()
		}
		for _, d := range img.DynSyms {
			sig, ok := table[d.Name]
			if !ok {
				continue // not declared: translated like any guest code
			}
			fn, ok := lib.Lookup(d.Name)
			if !ok {
				return fmt.Errorf("core: IDL declares %q but host library lacks it", d.Name)
			}
			rt.plt[d.PLT] = &pltEntry{sig: sig, fn: fn, name: d.Name}
		}
	}
	return nil
}

// newStack carves a stack and returns its top.
func (rt *Runtime) newStack() uint64 {
	rt.stackCur -= rt.cfg.StackSize
	return rt.stackCur + rt.cfg.StackSize - 64
}

// StartThread prepares a vCPU to run guest code at entry.
func (rt *Runtime) startThread(c *machine.CPU, entry uint64) error {
	return rt.dispatch(c, entry)
}

// Run executes the guest from its entry point to completion and returns
// the main thread's exit code. With SelfHeal enabled, traps attributable
// to a translated block are absorbed: the block is quarantined, demoted
// one tier and retranslated, and execution resumes — up to MaxHeals times.
func (rt *Runtime) Run() (uint64, error) {
	c := rt.M.CPUs[0]
	if rt.tierup != nil {
		defer rt.tierup.stop(c)
	}
	*guestReg(c, x86.RSP) = rt.newStack()
	err := rt.runHealed(func() error { return rt.startThread(c, rt.img.Entry) })
	if err == nil {
		err = rt.runHealed(func() error { return rt.M.RunAll(rt.cfg.Quantum, rt.cfg.MaxSteps) })
	}
	if err != nil {
		return 0, err
	}
	return c.ExitCode, nil
}

// dispatch points the vCPU at the translation of guestPC, translating on
// a cache miss, or performs a host-linked library call when guestPC is a
// linked PLT entry.
func (rt *Runtime) dispatch(c *machine.CPU, guestPC uint64) error {
	if e, ok := rt.plt[guestPC]; ok {
		return rt.hostCall(c, e)
	}
	if rt.tierup != nil {
		rt.tierup.tick(c, guestPC)
	}
	t, ok := rt.tbs[guestPC]
	if !ok {
		var err error
		t, err = rt.translate(c, guestPC)
		if err != nil {
			return err
		}
	}
	c.PC = t.hostAddr
	return nil
}

// startTier is the tier a fresh translation of guestPC begins at: the
// pinned rung when the ladder has touched the block, TierNoOpt when
// tier-up is on (cheap first, promote if hot), TierFull otherwise.
func (rt *Runtime) startTier(guestPC uint64) selfheal.Tier {
	if t, pinned := rt.heal.Lookup(guestPC); pinned {
		return t
	}
	if rt.tierup != nil {
		return selfheal.TierNoOpt
	}
	return selfheal.TierFull
}

// translate builds, optimizes and emits one block at the tier the
// quarantine registry prescribes for it. In -selfcheck mode every freshly
// compiled block is shadow-verified against the TCG interpreter before it
// is trusted; a divergence quarantines the block and retries one tier
// down, and only an exhausted ladder surfaces the miscompile as a trap.
func (rt *Runtime) translate(c *machine.CPU, guestPC uint64) (*tb, error) {
	// A promoted superblock dropped by a cache flush is reinstalled from
	// its retained IR rather than retranslated as a single block.
	if rt.tierup != nil {
		if t, promoted, err := rt.tierup.reemit(c, guestPC); promoted {
			return t, err
		}
	}
	for {
		tier := rt.startTier(guestPC)
		t, ir, err := rt.translateAtTier(c, guestPC, tier)
		if err != nil {
			return nil, err
		}
		if rt.cfg.SelfCheck && tier != selfheal.TierInterp {
			div := rt.shadowVerify(c, t, ir)
			if div != nil {
				rt.met.divergences.Inc()
				rt.obs.Event("core.selfheal.divergence", div.Summary(), c.ID, guestPC, t.hostAddr)
				if rt.quarantinePC(c, guestPC, div.Summary()) {
					continue
				}
				trap := faults.New(faults.TrapMiscompile, "%s", div.Summary())
				return nil, trap.WithCPU(c.ID).WithGuestPC(guestPC)
			}
		}
		return t, nil
	}
}

// translateAtTier builds one block at the given tier. For compiled tiers
// it also returns the unoptimized frontend IR when -selfcheck needs an
// oracle input. Code-cache exhaustion is not fatal: it triggers a full
// cache flush plus chain reset and a single retranslation attempt (QEMU's
// tb_flush recovery); only a block that cannot fit an empty cache still
// reports the typed trap.
func (rt *Runtime) translateAtTier(c *machine.CPU, guestPC uint64, tier selfheal.Tier) (*tb, *tcg.Block, error) {
	if tier == selfheal.TierInterp {
		t, err := rt.translateInterp(c, guestPC)
		return t, nil, err
	}
	tstart := rt.obs.Begin()
	rt.pipe.cpu = c.ID // span attribution for the foreground pipeline
	block, ir, err := rt.xlat.TranslateIR(guestPC, tier)
	if err != nil {
		if t, ok := faults.As(err); ok {
			t.WithCPU(c.ID).WithGuestPC(guestPC)
		}
		return nil, nil, err
	}
	t, err := rt.emitWithFlushRetry(c, block, guestPC)
	if t != nil {
		t.tier = tier
	}
	rt.met.translateNS.Observe(uint64(rt.obs.Begin() - tstart))
	return t, ir, err
}

// translateInterp installs the interpreter-tier "translation" of guestPC:
// a single SVC #SvcInterp stub in the code cache plus the block's literal
// frontend IR in the IR cache. handleSvc recognizes the stub and runs the
// IR through the TCG interpreter — no code generation is trusted at all.
func (rt *Runtime) translateInterp(c *machine.CPU, guestPC uint64) (*tb, error) {
	if t := rt.cfg.Inject.Hit(faults.SiteCacheAlloc); t != nil {
		return nil, t.WithCPU(c.ID).WithGuestPC(guestPC)
	}
	tstart := rt.obs.Begin()
	block, err := frontend.Translate(rt.M.Mem, guestPC, rt.feCfg)
	rt.obs.Span("frontend.decode", "interp", c.ID, guestPC, 0, tstart)
	if err != nil {
		if t, ok := faults.As(err); ok {
			t.WithCPU(c.ID).WithGuestPC(guestPC)
		}
		return nil, err
	}
	w, err := arm.Encode(arm.Inst{Op: arm.SVC, Imm: backend.SvcInterp})
	if err != nil {
		return nil, err
	}
	base, aerr := rt.allocCode(c, arm.InstBytes, guestPC)
	if aerr != nil && faults.IsKind(aerr, faults.TrapCacheExhausted) {
		rt.flushCodeCache()
		base, aerr = rt.allocCode(c, arm.InstBytes, guestPC)
	}
	if aerr != nil {
		return nil, aerr
	}
	binary.LittleEndian.PutUint32(rt.M.Mem[base:], w)
	rt.M.InvalidateDecodeAt(base)
	t := &tb{guestPC: guestPC, hostAddr: base, codeLen: arm.InstBytes, tier: selfheal.TierInterp}
	rt.tbs[guestPC] = t
	rt.irCache[guestPC] = block
	rt.interpStubs[base] = guestPC
	rt.met.blocks.Inc()
	rt.met.guestBytes.Add(block.GuestEnd - block.GuestPC)
	rt.obs.Span("backend.emit", "interp-stub", c.ID, guestPC, base, tstart)
	rt.met.translateNS.Observe(uint64(rt.obs.Begin() - tstart))
	return t, nil
}

// allocCode reserves size bytes of code cache, skipping pinned extents.
// Only position-independent code (the interp stub) uses it; full blocks
// regenerate per-candidate base in emitBlock instead.
func (rt *Runtime) allocCode(c *machine.CPU, size int, guestPC uint64) (uint64, error) {
	base := rt.codeCursor
	for {
		end := base + uint64(size)
		if end > uint64(len(rt.M.Mem)) || end < base {
			t := faults.New(faults.TrapCacheExhausted,
				"code cache exhausted at %#x (stub %d bytes, memory ends %#x)",
				base, size, len(rt.M.Mem))
			return 0, t.WithCPU(c.ID).WithGuestPC(guestPC)
		}
		if pe, ok := rt.pinnedOverlap(base, end); ok {
			base = (pe.end + 15) &^ 15
			continue
		}
		rt.codeCursor = (end + 15) &^ 15
		return base, nil
	}
}

// emitBlock generates host code for block at the next free code-cache
// slot, skipping pinned extents, and installs it. A block that does not
// fit reports a faults.TrapCacheExhausted (recoverable via flush).
func (rt *Runtime) emitBlock(c *machine.CPU, block *tcg.Block, guestPC uint64) (*tb, error) {
	if t := rt.cfg.Inject.Hit(faults.SiteCacheAlloc); t != nil {
		return nil, t.WithCPU(c.ID).WithGuestPC(guestPC)
	}
	base := rt.codeCursor
	for {
		estart := rt.obs.Begin()
		code, st, err := backend.Generate(block, base, rt.beCfg)
		if err != nil {
			return nil, fmt.Errorf("core: generating %#x: %w", guestPC, err)
		}
		end := base + uint64(len(code))
		if end > uint64(len(rt.M.Mem)) || end < base {
			t := faults.New(faults.TrapCacheExhausted,
				"code cache exhausted at %#x (block %d bytes, memory ends %#x)",
				base, len(code), len(rt.M.Mem))
			return nil, t.WithCPU(c.ID).WithGuestPC(guestPC)
		}
		// Generated code is position-dependent, so a collision with a
		// pinned extent moves the cursor past it and regenerates.
		if pe, ok := rt.pinnedOverlap(base, end); ok {
			base = (pe.end + 15) &^ 15
			continue
		}
		copy(rt.M.Mem[base:], code)
		t := &tb{guestPC: guestPC, hostAddr: base, codeLen: len(code)}
		rt.codeCursor = (end + 15) &^ 15
		rt.tbs[guestPC] = t

		rt.met.blocks.Inc()
		rt.met.guestBytes.Add(block.GuestEnd - block.GuestPC)
		rt.met.hostInsts.Add(uint64(st.Insts))
		rt.met.dmbFull.Add(uint64(st.DMBFull))
		rt.met.dmbLoad.Add(uint64(st.DMBLoad))
		rt.met.dmbStore.Add(uint64(st.DMBStore))
		rt.met.casal.Add(uint64(st.Casal))
		rt.met.exclLoop.Add(uint64(st.ExclLoop))
		rt.met.codeBytes.Observe(uint64(len(code)))
		rt.obs.Span("backend.emit", "", c.ID, guestPC, base, estart)
		if rt.cfg.Chain {
			for _, slot := range st.ChainSlots {
				// Host-linked PLT targets must keep trapping: the host call
				// runs in the dispatcher.
				if _, linked := rt.plt[slot.GuestTarget]; linked {
					continue
				}
				rt.chainSites[t.hostAddr+uint64(slot.Off)] = slot.GuestTarget
			}
		}
		// Miscompile injection: corrupt the freshly installed code by
		// overwriting its first instruction with SVC #SvcMiscompile — a
		// recognizable marker the SVC handler turns into a structured
		// TrapMiscompile the moment the block executes. Corrupting the
		// first instruction guarantees the block has no partial effects,
		// so quarantine-and-retranslate recovery is always sound.
		if mt := rt.cfg.Inject.Hit(faults.SiteMiscompile); mt != nil {
			if mw, merr := arm.Encode(arm.Inst{Op: arm.SVC, Imm: backend.SvcMiscompile}); merr == nil {
				binary.LittleEndian.PutUint32(rt.M.Mem[base:], mw)
				rt.M.InvalidateDecodeAt(base)
				rt.met.miscompiles.Inc()
				rt.obs.Event("core.selfheal.miscompile_injected", "", c.ID, guestPC, base)
			}
		}
		c.Cycles += translationCostPerByte * (block.GuestEnd - block.GuestPC)
		return t, nil
	}
}

// pinnedOverlap reports the first pinned extent intersecting [start, end).
func (rt *Runtime) pinnedOverlap(start, end uint64) (extent, bool) {
	for _, e := range rt.pinned {
		if start < e.end && e.start < end {
			return e, true
		}
	}
	return extent{}, false
}

// flushCodeCache drops every translation and resets the allocation cursor
// so translation can start over — the graceful-degradation answer to cache
// exhaustion. Correctness around the flush:
//
//   - Chain reset: every patched direct branch is restored to its exit
//     SVC first, so no surviving code can branch into recycled memory.
//   - Pinning: CPUs parked mid-block by the scheduler (or helper-call
//     link addresses in X30) keep executing old code until their next
//     block-end trap; the extents containing any live CPU's PC or LR are
//     pinned and the allocator routes around them until a later flush
//     observes them dead.
//   - The machine's decode cache is invalidated wholesale, since freed
//     addresses will be rewritten with fresh code.
func (rt *Runtime) flushCodeCache() {
	w, err := arm.Encode(arm.Inst{Op: arm.SVC, Imm: backend.SvcTBExit})
	if err == nil {
		for addr := range rt.patched {
			binary.LittleEndian.PutUint32(rt.M.Mem[addr:], w)
		}
	}
	clear(rt.patched)
	clear(rt.chainSites)

	candidates := make([]extent, 0, len(rt.tbs)+len(rt.pinned))
	for _, t := range rt.tbs {
		candidates = append(candidates, extent{t.hostAddr, t.hostAddr + uint64(t.codeLen)})
	}
	candidates = append(candidates, rt.pinned...)
	var pins []extent
	for _, e := range candidates {
		for _, c := range rt.M.CPUs {
			if c.Halted {
				continue
			}
			if (c.PC >= e.start && c.PC < e.end) ||
				(c.Regs[30] >= e.start && c.Regs[30] < e.end) {
				pins = append(pins, e)
				break
			}
		}
	}
	sort.Slice(pins, func(i, j int) bool { return pins[i].start < pins[j].start })
	rt.pinned = pins

	clear(rt.tbs)
	rt.codeCursor = rt.cfg.CodeCacheBase
	// Interp stubs inside pinned extents may still execute (a CPU parked
	// at the stub), so their reverse mapping must survive; the rest is
	// recycled memory. The IR cache is keyed by guest PC and simply gets
	// overwritten on retranslation.
	for addr := range rt.interpStubs {
		live := false
		for _, e := range pins {
			if addr >= e.start && addr < e.end {
				live = true
				break
			}
		}
		if !live {
			delete(rt.interpStubs, addr)
		}
	}
	rt.M.InvalidateDecodeCache()
	rt.met.cacheFlushes.Inc()
	rt.obs.Event("core.cache.flush", fmt.Sprintf("pinned=%d", len(pins)), -1, 0, 0)
}

// invalidateBlock removes guestPC's translation so the next dispatch
// retranslates it. Direct branches patched into the block are restored to
// their dispatch SVCs first, so no surviving code path can reach the stale
// copy; its extent is leaked until the next full flush (piecemeal reuse
// cannot be made safe under chaining). CPUs parked mid-block by the
// scheduler may still finish the stale copy once — any trap it produces is
// attributed and quarantined again, bounded by MaxHeals.
func (rt *Runtime) invalidateBlock(guestPC uint64) {
	t, ok := rt.tbs[guestPC]
	if !ok {
		return
	}
	if w, err := arm.Encode(arm.Inst{Op: arm.SVC, Imm: backend.SvcTBExit}); err == nil {
		for addr, target := range rt.patched {
			if target != guestPC {
				continue
			}
			binary.LittleEndian.PutUint32(rt.M.Mem[addr:], w)
			rt.M.InvalidateDecodeAt(addr)
			delete(rt.patched, addr)
			rt.chainSites[addr] = target
		}
	}
	for addr := range rt.chainSites {
		if addr >= t.hostAddr && addr < t.hostAddr+uint64(t.codeLen) {
			delete(rt.chainSites, addr)
		}
	}
	delete(rt.tbs, guestPC)
	delete(rt.irCache, guestPC)
	delete(rt.interpStubs, t.hostAddr)
}

// chain patches the exit SVC at svcAddr into a direct branch to the target
// block, so the dispatcher is skipped on subsequent executions (QEMU's
// goto_tb / block chaining).
func (rt *Runtime) chain(svcAddr uint64, target *tb) error {
	off := (int64(target.hostAddr) - int64(svcAddr)) / arm.InstBytes
	if off < -(1<<23) || off >= 1<<23 {
		// Too far for a direct branch; keep trapping.
		return nil
	}
	w, err := arm.Encode(arm.Inst{Op: arm.B, Off: int32(off)})
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(rt.M.Mem[svcAddr:], w)
	rt.M.InvalidateDecodeAt(svcAddr)
	delete(rt.chainSites, svcAddr)
	rt.patched[svcAddr] = target.guestPC
	rt.met.chainPatches.Inc()
	rt.obs.Event("core.chain.patch", "", -1, target.guestPC, svcAddr)
	return nil
}

// guestPCOf maps a host-code address back to the guest PC of the block
// containing it, for trap attribution.
func (rt *Runtime) guestPCOf(hostAddr uint64) (uint64, bool) {
	for _, t := range rt.tbs {
		if hostAddr >= t.hostAddr && hostAddr < t.hostAddr+uint64(t.codeLen) {
			return t.guestPC, true
		}
	}
	return 0, false
}

// DisassembleBlock returns the host-code disassembly of the translation
// of guestPC (translating it on the calling CPU if not yet cached), for
// inspection and tooling. Undecodable words — e.g. injected corruption —
// render as raw ".word" lines instead of failing, so crash bundles can
// disassemble the very block that trapped.
func (rt *Runtime) DisassembleBlock(guestPC uint64) (string, error) {
	t, ok := rt.tbs[guestPC]
	if !ok {
		var err error
		t, err = rt.translate(rt.M.CPUs[0], guestPC)
		if err != nil {
			return "", err
		}
	}
	return rt.disasmTB(t), nil
}

// disasmTB renders t's host code, tolerating undecodable words.
func (rt *Runtime) disasmTB(t *tb) string {
	var sb []byte
	sb = append(sb, fmt.Sprintf("TB guest=%#x host=%#x (%d bytes, tier %s)\n",
		t.guestPC, t.hostAddr, t.codeLen, t.tier)...)
	for off := 0; off < t.codeLen; off += arm.InstBytes {
		addr := t.hostAddr + uint64(off)
		inst, err := arm.DecodeAt(rt.M.Mem, int(addr))
		if err != nil {
			w := binary.LittleEndian.Uint32(rt.M.Mem[addr:])
			sb = append(sb, fmt.Sprintf("  %#08x: .word %#08x (undecodable)\n", addr, w)...)
			continue
		}
		sb = append(sb, fmt.Sprintf("  %#08x: %v\n", addr, inst)...)
	}
	return string(sb)
}

// BlockPCs returns every translated guest PC, sorted by translation order
// is not guaranteed; callers sort as needed.
func (rt *Runtime) BlockPCs() []uint64 {
	out := make([]uint64, 0, len(rt.tbs))
	for pc := range rt.tbs {
		out = append(out, pc)
	}
	return out
}

// handleSvc serves translated-code traps: block exits and halts.
func (rt *Runtime) handleSvc(m *machine.Machine, c *machine.CPU, imm uint16) error {
	switch imm {
	case backend.SvcTBExit:
		if rt.cfg.Chain {
			// c.PC was advanced past the SVC before the trap.
			svcAddr := c.PC - arm.InstBytes
			if guestTarget, ok := rt.chainSites[svcAddr]; ok {
				if err := rt.dispatch(c, guestTarget); err != nil {
					return err
				}
				// Translating the target may have flushed the cache, which
				// clears chainSites and may recycle the block holding this
				// SVC — re-check before patching it.
				if _, still := rt.chainSites[svcAddr]; !still {
					return nil
				}
				// With tier-up on, a still-promotable target keeps trapping
				// through dispatch so its execution counter keeps counting;
				// the site is chained once the target is promoted or
				// blacklisted.
				if rt.tierup != nil && rt.tierup.deferChain(guestTarget) {
					return nil
				}
				// dispatch pointed the CPU at the target block (a host
				// call would have redirected elsewhere; only patch when
				// the target is a plain block).
				if t, ok := rt.tbs[guestTarget]; ok && c.PC == t.hostAddr {
					return rt.chain(svcAddr, t)
				}
				return nil
			}
		}
		return rt.dispatch(c, c.Regs[18])
	case backend.SvcHalt:
		c.Halted = true
		return nil
	case backend.SvcInterp:
		// Interpreter-tier stub: the block's literal IR runs through the
		// TCG interpreter. c.PC was advanced past the SVC before the trap.
		svcAddr := c.PC - arm.InstBytes
		gpc, ok := rt.interpStubs[svcAddr]
		if !ok {
			return faults.New(faults.TrapDecode,
				"core: stray interp stub at %#x", svcAddr).WithCPU(c.ID).WithHostPC(svcAddr)
		}
		return rt.interpExec(c, gpc)
	case backend.SvcMiscompile:
		// Injected translation corruption executed: surface the structured
		// miscompile trap, attributed to the containing block so the
		// self-healing layer can quarantine it.
		svcAddr := c.PC - arm.InstBytes
		t := faults.New(faults.TrapMiscompile, "core: corrupted translation executed")
		t.Injected = true
		t.WithCPU(c.ID)
		if gpc, ok := rt.guestPCOf(svcAddr); ok {
			return t.WithGuestPC(gpc)
		}
		return t.WithHostPC(svcAddr)
	default:
		t := faults.New(faults.TrapDecode, "core: unexpected svc #%d", imm).WithCPU(c.ID)
		// c.PC was advanced past the SVC before the trap.
		if gpc, ok := rt.guestPCOf(c.PC - arm.InstBytes); ok {
			return t.WithGuestPC(gpc)
		}
		return t.WithHostPC(c.PC - arm.InstBytes)
	}
}
