package core

import "repro/internal/obs"

// metrics caches the runtime's obs handles so hot paths never take the
// registry lock. All core metrics live under the "core." prefix of the
// scope passed by WithObs (or a private scope when none is given, so
// Stats() always works).
type metrics struct {
	blocks       *obs.Counter
	guestBytes   *obs.Counter
	hostInsts    *obs.Counter
	dmbFull      *obs.Counter
	dmbLoad      *obs.Counter
	dmbStore     *obs.Counter
	casal        *obs.Counter
	exclLoop     *obs.Counter
	helperCalls  *obs.Counter
	hostCalls    *obs.Counter
	syscalls     *obs.Counter
	chainPatches *obs.Counter
	cacheFlushes *obs.Counter
	quarantines  *obs.Counter
	demotions    *obs.Counter
	divergences  *obs.Counter
	heals        *obs.Counter
	selfChecks   *obs.Counter
	selfSkipped  *obs.Counter
	interpBlocks *obs.Counter
	miscompiles  *obs.Counter
	// Tier-up counters: promotions installed, superblocks among them (and
	// the guest blocks they stitched), fences saved by merging across
	// block seams (under "tcg." beside the per-block pass counters).
	promotions       *obs.Counter
	superBlocks      *obs.Counter
	superGuestBlocks *obs.Counter
	crossFences      *obs.Counter
	translateNS      *obs.Histogram
	codeBytes        *obs.Histogram
}

func newMetrics(root *obs.Scope) metrics {
	sc := root.Child("core")
	return metrics{
		blocks:           sc.Counter("blocks"),
		guestBytes:       sc.Counter("guest_bytes"),
		hostInsts:        sc.Counter("host_insts"),
		dmbFull:          sc.Counter("fences.dmb_full"),
		dmbLoad:          sc.Counter("fences.dmb_load"),
		dmbStore:         sc.Counter("fences.dmb_store"),
		casal:            sc.Counter("atomics.casal"),
		exclLoop:         sc.Counter("atomics.excl_loop"),
		helperCalls:      sc.Counter("helper_calls"),
		hostCalls:        sc.Counter("host_calls"),
		syscalls:         sc.Counter("syscalls"),
		chainPatches:     sc.Counter("chain_patches"),
		cacheFlushes:     sc.Counter("cache_flushes"),
		quarantines:      sc.Counter("selfheal.quarantines"),
		demotions:        sc.Counter("selfheal.demotions"),
		divergences:      sc.Counter("selfheal.divergences"),
		heals:            sc.Counter("selfheal.heals"),
		selfChecks:       sc.Counter("selfheal.selfchecks"),
		selfSkipped:      sc.Counter("selfheal.selfcheck_skipped"),
		interpBlocks:     sc.Counter("selfheal.interp_blocks"),
		miscompiles:      sc.Counter("selfheal.miscompiles_injected"),
		promotions:       sc.Counter("selfheal.promotions"),
		superBlocks:      sc.Counter("superblock.blocks"),
		superGuestBlocks: sc.Counter("superblock.guest_blocks"),
		crossFences:      root.Child("tcg").Counter("fence_merges_cross_block"),
		translateNS:      sc.Histogram("translate_ns", obs.DurationBuckets),
		codeBytes:        sc.Histogram("code_bytes", obs.SizeBuckets),
	}
}

// Stats returns the runtime counters as a plain struct — the historical
// core.Stats API, now a typed view over the obs registry. The values are
// read from the live counters, so two calls around a run bracket the
// run's deltas.
func (rt *Runtime) Stats() Stats {
	return Stats{
		Blocks:                rt.met.blocks.Load(),
		GuestBytes:            rt.met.guestBytes.Load(),
		HostInsts:             rt.met.hostInsts.Load(),
		DMBFull:               rt.met.dmbFull.Load(),
		DMBLoad:               rt.met.dmbLoad.Load(),
		DMBStore:              rt.met.dmbStore.Load(),
		Casal:                 rt.met.casal.Load(),
		ExclLoop:              rt.met.exclLoop.Load(),
		HelperCalls:           rt.met.helperCalls.Load(),
		HostCalls:             rt.met.hostCalls.Load(),
		Syscalls:              rt.met.syscalls.Load(),
		ChainPatches:          rt.met.chainPatches.Load(),
		CacheFlushes:          rt.met.cacheFlushes.Load(),
		Quarantines:           rt.met.quarantines.Load(),
		Demotions:             rt.met.demotions.Load(),
		Divergences:           rt.met.divergences.Load(),
		Heals:                 rt.met.heals.Load(),
		SelfChecks:            rt.met.selfChecks.Load(),
		InterpBlocks:          rt.met.interpBlocks.Load(),
		Promotions:            rt.met.promotions.Load(),
		Superblocks:           rt.met.superBlocks.Load(),
		SuperblockGuestBlocks: rt.met.superGuestBlocks.Load(),
		CrossBlockFenceMerges: rt.met.crossFences.Load(),
	}
}

// Obs returns the scope the runtime reports into: the one from
// WithObs, or the private scope created when none was given.
func (rt *Runtime) Obs() *obs.Scope { return rt.obs }
