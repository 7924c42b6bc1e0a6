package main

import (
	"fmt"
	"sort"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/guestimg"
	"repro/internal/mapping"
	"repro/internal/portasm"
	"repro/internal/selfheal"
	"repro/internal/tcg"
)

// program is one guest program with its native reference: the exit code
// and dynamic instruction count of its native (Arm) build, run on the
// machine alone with no translation involved.
type program struct {
	name        string
	img         *guestimg.Image
	exit        uint64
	nativeInsts uint64
}

// buildProgram builds pb as a guest image and runs its native build for
// the reference exit code. The native run is a machine.native_run span.
func buildProgram(tr *tracer, name string, pb *portasm.Builder) (program, error) {
	img, err := pb.BuildGuest("main")
	if err != nil {
		return program{}, fmt.Errorf("%s: guest build: %w", name, err)
	}
	nimg, err := pb.BuildNative("main")
	if err != nil {
		return program{}, fmt.Errorf("%s: native build: %w", name, err)
	}
	s := tr.begin("machine.native_run", -1, -1)
	m, err := portasm.RunNative(nimg, 0)
	tr.end(s)
	if err != nil {
		return program{}, fmt.Errorf("%s: native run: %w", name, err)
	}
	return program{name: name, img: img, exit: m.CPUs[0].ExitCode, nativeInsts: m.TotalInsts()}, nil
}

// pipeline is the translation configuration core.New picks for a
// variant, rebuilt from the layers' public packages so the traced run can
// replay a runtime's blocks one layer at a time. The replay-equivalence
// guard in replayBlocks proves it matches the runtime's own.
type pipeline struct {
	fe  frontend.Config
	opt tcg.OptConfig
	be  backend.Config
}

func pipelineFor(v core.Variant) pipeline {
	be := backend.Config{CAS: backend.CASCasal}
	full := selfheal.TierFull.OptLevel()
	switch v {
	case core.VariantQemu:
		opt := tcg.OptConfig{ConstProp: true, AccessElim: true, DeadCode: true}
		return pipeline{frontend.Config{Scheme: mapping.X86Qemu, CAS: frontend.CASHelper}, opt.Degrade(full), be}
	case core.VariantRisotto:
		return pipeline{frontend.Config{Scheme: mapping.X86Verified, CAS: frontend.CASInline}, tcg.DefaultOpt().Degrade(full), be}
	}
	panic(fmt.Sprintf("perfbench: no replay pipeline for variant %s", v))
}

// dbtCounts sums what DBT ops did, from the runtime's and the machine's
// public counters plus, in the traced run, the layer replay.
type dbtCounts struct {
	ops                               uint64
	stats                             core.Stats
	cycles, insts, atomics, dmbs      uint64
	nativeInsts                       uint64
	replayed                          uint64 // blocks replayed
	irOps, irOut, fencesIn, fencesOut uint64
	hostInsts                         uint64
}

// addRun folds one finished runtime into c.
func (c *dbtCounts) addRun(rt *core.Runtime, nativeInsts uint64) {
	st := rt.Stats()
	c.ops++
	c.stats.Blocks += st.Blocks
	c.stats.GuestBytes += st.GuestBytes
	c.stats.HostInsts += st.HostInsts
	c.stats.HelperCalls += st.HelperCalls
	c.stats.Syscalls += st.Syscalls
	c.stats.ChainPatches += st.ChainPatches
	c.stats.CacheFlushes += st.CacheFlushes
	c.cycles += rt.M.MaxCycles()
	c.insts += rt.M.TotalInsts()
	c.atomics += rt.M.AtomicExec
	for _, n := range rt.M.DMBExec {
		c.dmbs += n
	}
	c.nativeInsts += nativeInsts
}

// cyclesPerOp is the mean simulated cycles of the runs in c.
func (c dbtCounts) cyclesPerOp() float64 { return ratio(float64(c.cycles), float64(c.ops)) }

// runGuest is one DBT op: a fresh runtime for img, run to completion,
// with the exit code checked against the native reference.
func runGuest(tr *tracer, op, parent int, p program, opts ...core.Option) (*core.Runtime, error) {
	s := tr.begin("core.new", op, parent)
	rt, err := core.New(p.img, opts...)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: core.New: %w", p.name, err)
	}
	s = tr.begin("core.run", op, parent)
	code, err := rt.Run()
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", p.name, err)
	}
	if code != p.exit {
		return nil, fmt.Errorf("%s: exit code %d, native build exits %d", p.name, code, p.exit)
	}
	return rt, nil
}

// measureDBT is the closed loop of the fig12 and coldcode workloads: op k
// runs input(k) on a fresh runtime, and the traced run then replays the
// op's blocks layer by layer. first collects the counts of the first
// cycle of n ops.
func measureDBT(seconds float64, tr *tracer, n int, input func(k int) (program, core.Variant), first *dbtCounts) phase {
	*first = dbtCounts{}
	var rt *core.Runtime
	op := func(k int) error {
		p, v := input(k)
		root := tr.begin("op", k, -1)
		var err error
		rt, err = runGuest(tr, k, root, p, core.WithVariant(v))
		tr.end(root)
		if err == nil && k < n {
			first.addRun(rt, p.nativeInsts)
		}
		return err
	}
	var after func(int) error
	if tr != nil {
		after = func(k int) error {
			_, v := input(k)
			s := tr.begin("replay", k, -1)
			defer tr.end(s)
			c := &dbtCounts{}
			if k < n {
				c = first
			}
			_, _, err := replayBlocks(tr, k, s, rt, pipelineFor(v), c)
			return err
		}
	}
	return closedLoop(seconds, n, minOps, op, after)
}

// replayCodeBase is where replayed blocks are generated: core's default
// code-cache base for its default 32 MiB machine.
const replayCodeBase = 24 << 20

// replayBlocks times every block rt translated through frontend.Translate,
// tcg.Optimize and backend.Generate, one span per layer per block, and
// checks that the replayed IR equals what the runtime's own translator
// emits for the same PC (the replay-equivalence guard). It returns the
// replayed optimized blocks in PC order.
func replayBlocks(tr *tracer, op, parent int, rt *core.Runtime, p pipeline, c *dbtCounts) ([]*tcg.Block, []uint64, error) {
	pcs := rt.BlockPCs()
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	blocks := make([]*tcg.Block, 0, len(pcs))
	for _, pc := range pcs {
		s := tr.begin("frontend.translate", op, parent)
		blk, err := frontend.Translate(rt.M.Mem, pc, p.fe)
		tr.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("replay %#x: frontend: %w", pc, err)
		}
		c.irOps += uint64(len(blk.Insts))
		c.fencesIn += blk.CountOp(tcg.OpMb)

		s = tr.begin("tcg.optimize", op, parent)
		tcg.Optimize(blk, p.opt)
		tr.end(s)
		c.irOut += uint64(len(blk.Insts))
		c.fencesOut += blk.CountOp(tcg.OpMb)

		g := tr.begin("bench.guard", op, parent)
		want, _, err := rt.Translator().TranslateIR(pc, selfheal.TierFull)
		tr.end(g)
		if err != nil {
			return nil, nil, fmt.Errorf("guard %#x: runtime translator: %w", pc, err)
		}
		if want.String() != blk.String() {
			return nil, nil, fmt.Errorf("guard %#x: replayed IR differs from the runtime's", pc)
		}

		s = tr.begin("backend.generate", op, parent)
		_, st, err := backend.Generate(blk, replayCodeBase, p.be)
		tr.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("replay %#x: backend: %w", pc, err)
		}
		c.hostInsts += uint64(st.Insts)
		c.replayed++
		blocks = append(blocks, blk)
	}
	return blocks, pcs, nil
}

// dbtLayers fills the core, machine, frontend, tcg and backend per-layer
// metrics. Times come from the tracer's spans; counts come from c, which
// covers a fixed set of ops so they repeat exactly for one seed.
func dbtLayers(lt layerTimes, c dbtCounts, m map[string]float64) {
	ops := float64(c.ops)
	per := func(v uint64) float64 { return ratio(float64(v), ops) }
	perBlock := func(v uint64) float64 { return ratio(float64(v), float64(c.replayed)) }
	newS, runS := lt.mean("core.new"), lt.mean("core.run")
	replayed := lt["frontend.translate"].Total + lt["tcg.optimize"].Total + lt["backend.generate"].Total
	translatePerOp := ratio(replayed, float64(lt["core.run"].Count))
	execS := runS - translatePerOp

	m["core.new_s"] = newS
	m["core.run_s"] = runS
	m["core.exec_s"] = execS
	m["core.blocks"] = per(c.stats.Blocks)
	m["core.guest_bytes"] = per(c.stats.GuestBytes)
	m["core.host_insts"] = per(c.stats.HostInsts)
	m["core.helper_calls"] = per(c.stats.HelperCalls)
	m["core.syscalls"] = per(c.stats.Syscalls)
	m["core.chain_patches"] = per(c.stats.ChainPatches)
	m["core.cache_flushes"] = per(c.stats.CacheFlushes)
	m["core.expansion"] = ratio(float64(c.insts), float64(c.nativeInsts))
	m["core.translate_share"] = ratio(translatePerOp, runS)
	m["machine.sim_cycles_per_op"] = c.cyclesPerOp()
	m["machine.insts"] = per(c.insts)
	m["machine.insts_per_s"] = ratio(per(c.insts), execS)
	m["machine.atomic_exec"] = per(c.atomics)
	m["machine.dmb_exec"] = per(c.dmbs)
	m["frontend.translate_s"] = lt.mean("frontend.translate")
	m["frontend.ir_ops"] = perBlock(c.irOps)
	m["tcg.optimize_s"] = lt.mean("tcg.optimize")
	m["tcg.ir_ops_out"] = perBlock(c.irOut)
	m["tcg.fences_in"] = perBlock(c.fencesIn)
	m["tcg.fences_out"] = perBlock(c.fencesOut)
	m["backend.generate_s"] = lt.mean("backend.generate")
	m["backend.host_insts"] = perBlock(c.hostInsts)
}

// nativeLayers fills the machine-only metrics of the native reference
// runs made during set-up.
func nativeLayers(lt layerTimes, progs []program, m map[string]float64) {
	var insts uint64
	for _, p := range progs {
		insts += p.nativeInsts
	}
	m["machine.native_run_s"] = lt.mean("machine.native_run")
	m["machine.native_insts_per_s"] = ratio(float64(insts), lt["machine.native_run"].Total)
}
