// Functional-options construction for the runtime: New takes the guest
// image plus options, mirroring litmus.Enumerate(p, m, ...Option), and is
// the only constructor. The unexported config is the parameter block the
// options fill; crash-bundle replay (Replay) restores it through an
// option too.

package core

import (
	"time"

	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/hostlib"
	"repro/internal/obs"
	"repro/internal/tcg"
)

// Option configures a Runtime under construction.
type Option func(*config)

// WithVariant selects the DBT setup (default VariantQemu).
func WithVariant(v Variant) Option {
	return func(c *config) { c.Variant = v }
}

// WithMemSize sets the machine memory size in bytes.
func WithMemSize(bytes int) Option {
	return func(c *config) { c.MemSize = bytes }
}

// WithHostLinker enables the dynamic host linker (§6.2) for the functions
// the IDL source declares; lib nil means hostlib.Default().
func WithHostLinker(idlSrc string, lib *hostlib.Library) Option {
	return func(c *config) { c.IDL, c.Lib = idlSrc, lib }
}

// WithQuantum sets the round-robin scheduling quantum in instructions.
func WithQuantum(insts int) Option {
	return func(c *config) { c.Quantum = insts }
}

// WithOptConfig overrides the variant's optimizer configuration (the
// ablation benchmarks' knob).
func WithOptConfig(o tcg.OptConfig) Option {
	return func(c *config) { c.Opt = &o }
}

// WithChain enables translation-block chaining (QEMU's goto_tb).
func WithChain(on bool) Option {
	return func(c *config) { c.Chain = on }
}

// WithWeakMemory runs the simulated host in operational weak-memory mode,
// seeded by seed.
func WithWeakMemory(seed int64) Option {
	return func(c *config) { s := seed; c.WeakSeed = &s }
}

// WithStepBudget bounds each vCPU's executed host instructions.
func WithStepBudget(n uint64) Option {
	return func(c *config) { c.StepBudget = n }
}

// WithDeadline sets the wall-clock watchdog for Run.
func WithDeadline(d time.Duration) Option {
	return func(c *config) { c.Deadline = d }
}

// WithFaults arms deterministic fault injection.
func WithFaults(inj *faults.Injector) Option {
	return func(c *config) { c.Inject = inj }
}

// WithSelfHeal enables the tiered self-healing layer.
func WithSelfHeal(on bool) Option {
	return func(c *config) { c.SelfHeal = on }
}

// WithSelfCheck enables runtime translation validation (implies SelfHeal).
func WithSelfCheck(on bool) Option {
	return func(c *config) { c.SelfCheck = on }
}

// WithProvenance records the CLI inputs (kernel name, fault spec, fault
// seed) for crash bundles; it does not affect execution.
func WithProvenance(kernel, faultSpec string, faultSeed int64) Option {
	return func(c *config) { c.Kernel, c.FaultSpec, c.FaultSeed = kernel, faultSpec, faultSeed }
}

// WithObs sets the observability scope the whole stack reports into.
func WithObs(sc *obs.Scope) Option {
	return func(c *config) { c.Obs = sc }
}

// WithTranslationCache installs a persistent translation cache.
func WithTranslationCache(tc TranslationCache) Option {
	return func(c *config) { c.TransCache = tc }
}

// WithTierUp enables the tier-up JIT: hot-block promotion in background
// translation workers, with superblock translation units. Zero fields of
// tu take their defaults (threshold 8, superblock max 4).
func WithTierUp(tu TierUpConfig) Option {
	return func(c *config) { c.TierUp = tu }
}

// New creates a runtime for the guest image, configured by options.
func New(img *guestimg.Image, opts ...Option) (*Runtime, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return newRuntime(cfg, img)
}
