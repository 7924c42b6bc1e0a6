// Translator is the one tier-translation entry point. The runtime used to
// have three ways to turn a guest PC into IR — translateAtTier's inline
// frontend+optimizer pipeline, the selfcheck shadow path's oracle clone,
// and the transcache ForImage view's load/store dance — each reaching into
// Runtime internals. They are now implementations of a single exported
// interface, so serve/transcache/selfheal consume translation through one
// surface (DESIGN.md §2). Two paths stay separate: the interpreter tier
// produces no optimized IR to emit (the literal frontend IR runs through
// the TCG interpreter), and tier-up's promotion workers stitch superblocks
// from frontend.Translate over a guest-text snapshot (buildPromotion).

package core

import (
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/selfheal"
	"repro/internal/tcg"
)

// Translator turns a guest PC into emit-ready IR at a tier of the
// self-healing ladder. ir is the post-optimization block the backend
// consumes; oracle is the pre-optimization frontend IR when the
// implementation retains one (selfcheck's interpreter input) and nil
// otherwise — cached translations, by design, no longer carry it.
type Translator interface {
	TranslateIR(pc uint64, tier selfheal.Tier) (ir, oracle *tcg.Block, err error)
}

// Translator exposes the runtime's translation pipeline — the same
// instance translateAtTier uses, so external consumers (tooling, tests)
// see exactly the IR the runtime would emit.
func (rt *Runtime) Translator() Translator { return rt.xlat }

// pipelineTranslator is the frontend → optimizer pipeline over a guest
// memory view; the runtime's instance reads live guest memory. Promotion
// workers do not use it: buildPromotion calls frontend.Translate directly
// over its guest-text snapshot. cpu is span attribution only (-1 outside
// a vCPU).
type pipelineTranslator struct {
	mem        []byte
	fe         frontend.Config
	opt        tcg.OptConfig
	keepOracle bool
	obs        *obs.Scope
	cpu        int
}

func (p *pipelineTranslator) TranslateIR(pc uint64, tier selfheal.Tier) (*tcg.Block, *tcg.Block, error) {
	tstart := p.obs.Begin()
	block, err := frontend.Translate(p.mem, pc, p.fe)
	p.obs.Span("frontend.decode", "", p.cpu, pc, 0, tstart)
	if err != nil {
		return nil, nil, err
	}
	var oracle *tcg.Block
	if p.keepOracle {
		oracle = block.Clone()
	}
	ostart := p.obs.Begin()
	tcg.Optimize(block, p.opt.Degrade(tier.OptLevel()))
	p.obs.Span("tcg.opt", "", p.cpu, pc, 0, ostart)
	return block, oracle, nil
}

// cachingTranslator consults a persistent TranslationCache before running
// the inner pipeline, and stores fresh IR after. Cached entries carry no
// oracle, so runtimes that need one (selfcheck) use the bare pipeline.
type cachingTranslator struct {
	inner Translator
	cache TranslationCache
}

func (c *cachingTranslator) TranslateIR(pc uint64, tier selfheal.Tier) (*tcg.Block, *tcg.Block, error) {
	if blk, ok := c.cache.LoadBlock(pc, tier); ok {
		return blk, nil, nil
	}
	ir, oracle, err := c.inner.TranslateIR(pc, tier)
	if err != nil {
		return nil, nil, err
	}
	c.cache.StoreBlock(pc, tier, ir)
	return ir, oracle, err
}
