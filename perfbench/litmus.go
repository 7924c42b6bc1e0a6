package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/litmus"
	"repro/internal/litmusgen"
	"repro/internal/mapping"
	"repro/internal/memmodel"
	"repro/internal/models"
	"repro/internal/opcheck"
)

// litmusCheck is one generated test with what its op checks.
type litmusCheck struct {
	test *litmusgen.Test
	// prog is the program the operational checks run: the test itself at
	// Arm level, its verified Arm translation at x86 level (as campaign
	// does).
	prog *litmus.Program
	// allowed is, for a 2-thread test, the op-ref outcome set of prog,
	// enumerated in set-up; its DPOR exploration must observe exactly
	// this set.
	allowed litmus.OutcomeSet
}

func (c litmusCheck) dpor() bool { return len(c.test.Prog.Threads) == 2 }

// litmusCounts are the explorer's counts over the first cycle of tests.
type litmusCounts struct {
	dporRuns, states, pruned int
	coverage                 float64
	enumerations, outcomes   int
}

// litmusWL is the checker-side workload: generated litmus tests through
// campaign.Check (Theorem 1, opcheck and an explore walk), and each
// 2-thread test through an exhaustive DPOR exploration. The DBT is never
// involved.
type litmusWL struct {
	seed int64

	checks  []litmusCheck
	emitted int
	first   litmusCounts
}

// Tests drawn per (shape, threads, level) group. The 3-thread tests are
// cheap (a few ms each, against tens of ms for a 2-thread test with its
// DPOR run), and there are three times as many, so the median op lies
// well inside them rather than on the step between the two kinds.
const (
	litmusPerDPOR  = 4
	litmusPerRing3 = 12
)

// litmusCandidates caps the tests generated per shape and level; the
// generator strides through larger decoration spaces.
const litmusCandidates = 64

// campaignConfig is the per-test pipeline: opcheck over four seeds and a
// four-walk explore soak.
var campaignConfig = campaign.Config{OpcheckSeeds: 4, ExploreSeeds: 4}

// fresh gives every standalone enumeration its own cache, so no op reuses
// another's work.
func fresh() []litmus.Option {
	return []litmus.Option{litmus.WithWorkers(1), litmus.WithCache(litmus.NewCache())}
}

func (w *litmusWL) setup(tr *tracer) error {
	cfg := litmusgen.Config{
		Shapes:      []string{"mp", "sb", "lb", "2+2w"},
		MinThreads:  2,
		MaxThreads:  3,
		MaxPerShape: litmusCandidates,
	}
	groups := make(map[string][]*litmusgen.Test)
	s := tr.begin("litmusgen.gen", -1, -1)
	st := litmusgen.Stream(cfg, func(t *litmusgen.Test) bool {
		// Names look like "g.mp2.x86+…": the shape with its thread count.
		shape := strings.Split(t.Prog.Name, ".")[1]
		key := shape + "/" + t.Level.String()
		groups[key] = append(groups[key], t)
		return true
	})
	tr.end(s)
	w.emitted = st.Emitted

	// Every 2-thread candidate's op-ref outcomes are enumerated here: the
	// reference its DPOR check compares against.
	opref, err := models.Default().Lookup("op-ref")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed))
	var drawn [][]litmusCheck
	for _, key := range sortedNames(groups) {
		var cands []litmusCheck
		for _, t := range groups[key] {
			c := litmusCheck{test: t, prog: t.Prog}
			if t.Level == litmusgen.LevelX86 {
				_, c.prog = mapping.TranslateVerified(t.Prog, mapping.RMWCasal)
			}
			if c.dpor() {
				c.allowed, err = litmus.Enumerate(c.prog, opref, fresh()...)
				if err != nil {
					return fmt.Errorf("litmus: reference outcomes of %s: %w", c.prog.Name, err)
				}
			}
			cands = append(cands, c)
		}
		// A systematic sample over the candidates sorted by a cost class:
		// an offset, then every stride-th. In the 3-thread groups the
		// class is the number of candidate executions, which tracks their
		// check time, and the seed picks the offset, so each seed draws
		// other tests of about the same costs. The 2-thread groups, sorted
		// by allowed-outcome count, draw the same tests for every seed:
		// their DPOR costs range over two orders of magnitude and only a
		// full exploration predicts them, so a seeded draw would set
		// ops_per_s by itself.
		per, offset := litmusPerDPOR, 0.5
		if cands[0].dpor() {
			sort.SliceStable(cands, func(i, j int) bool { return len(cands[i].allowed) < len(cands[j].allowed) })
		} else {
			per, offset = litmusPerRing3, rng.Float64()
			sortByCandidates(cands)
		}
		stride := float64(len(cands)) / float64(per)
		if stride < 1 {
			stride = 1
		}
		var pick []litmusCheck
		for x := offset * stride; int(x) < len(cands) && len(pick) < per; x += stride {
			pick = append(pick, cands[int(x)])
		}
		drawn = append(drawn, pick)
	}
	// Interleave the groups, so any run of ops mixes shapes, thread
	// counts and levels evenly.
	w.checks = w.checks[:0]
	for i := 0; i < litmusPerRing3; i++ {
		for _, g := range drawn {
			if i < len(g) {
				w.checks = append(w.checks, g[i])
			}
		}
	}
	if len(w.checks) == 0 {
		return fmt.Errorf("litmus: generator emitted no tests")
	}
	return nil
}

// sortByCandidates orders tests by the number of candidate executions
// the checks enumerate: of the test itself and, at x86 level, of its Arm
// translation too.
func sortByCandidates(cs []litmusCheck) {
	key := make(map[*litmusgen.Test]int, len(cs))
	for _, c := range cs {
		n := 0
		count := func(*litmus.Candidate) bool { n++; return true }
		litmus.EnumerateCandidates(c.test.Prog, count)
		if c.prog != c.test.Prog {
			litmus.EnumerateCandidates(c.prog, count)
		}
		key[c.test] = n
	}
	sort.SliceStable(cs, func(i, j int) bool { return key[cs[i].test] < key[cs[j].test] })
}

func (w *litmusWL) measure(seconds float64, tr *tracer) phase {
	w.first = litmusCounts{}
	n := len(w.checks)
	op := func(k int) error {
		c := w.checks[k%n]
		root := tr.begin("op", k, -1)
		defer tr.end(root)
		s := tr.begin("campaign.check", k, root)
		rec := campaign.Check(campaignConfig, c.test)
		tr.end(s)
		if rec.Verdict == campaign.VerdictFail {
			return fmt.Errorf("%s: campaign verdict fail: %s", rec.Name, rec.Detail)
		}
		if !c.dpor() {
			return nil
		}
		s = tr.begin("explore.dpor", k, root)
		res, err := explore.Run(c.prog, explore.Config{Mode: explore.ModeDPOR})
		tr.end(s)
		if errors.Is(err, opcheck.ErrUnsupported) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: dpor: %w", c.prog.Name, err)
		}
		if err := checkDPOR(res, c.allowed); err != nil {
			return fmt.Errorf("%s: dpor: %w", c.prog.Name, err)
		}
		if k < n {
			w.first.dporRuns++
			w.first.states += res.States
			w.first.pruned += res.Pruned
			w.first.coverage += res.Coverage()
		}
		return nil
	}
	var after func(int) error
	if tr != nil {
		after = func(k int) error {
			s := tr.begin("replay", k, -1)
			defer tr.end(s)
			return w.standalone(tr, k, s)
		}
	}
	return closedLoop(seconds, n, minOps, op, after)
}

// checkDPOR accepts an exhaustive exploration only if it finished within
// budget, found no violation, and observed exactly the reference set.
func checkDPOR(res *explore.Result, allowed litmus.OutcomeSet) error {
	switch {
	case len(res.Violations) > 0:
		return fmt.Errorf("violation: %s", res.Violations[0].Reason)
	case res.Partial:
		return fmt.Errorf("partial: %s", res.PartialReason)
	case res.Coverage() < 100:
		return fmt.Errorf("coverage %.1f%%", res.Coverage())
	case len(res.Observed) != len(allowed):
		return fmt.Errorf("observed %d outcomes, reference allows %d", len(res.Observed), len(allowed))
	}
	for _, o := range res.Observed {
		if !allowed[o] {
			return fmt.Errorf("observed %q, which the reference forbids", o)
		}
	}
	return nil
}

// standalone times the calls campaign.Check makes for op k's test, one
// at a time, each with its own enumeration cache.
func (w *litmusWL) standalone(tr *tracer, k, parent int) error {
	c := w.checks[k%len(w.checks)]
	armM := models.ByLevel(memmodel.LevelArm)
	if c.test.Level == litmusgen.LevelX86 {
		s := tr.begin("mapping.theorem1", k, parent)
		v := mapping.VerifyTheorem1(c.test.Prog, models.ByLevel(memmodel.LevelX86), c.prog, armM, fresh()...)
		tr.end(s)
		if !v.Correct() {
			return fmt.Errorf("%s: Theorem 1 fails: %v %v", c.test.Prog.Name, v.Err, v.NewBehaviours)
		}
	}
	s := tr.begin("litmus.enumerate", k, parent)
	out, err := litmus.Enumerate(c.prog, armM, fresh()...)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: enumerate: %w", c.prog.Name, err)
	}
	if k < len(w.checks) {
		w.first.enumerations++
		w.first.outcomes += len(out)
	}
	s = tr.begin("opcheck.check_sound", k, parent)
	bad, err := opcheck.CheckSound(c.prog, armM, campaignConfig.OpcheckSeeds, fresh()...)
	tr.end(s)
	if err != nil && !errors.Is(err, opcheck.ErrUnsupported) {
		return fmt.Errorf("%s: opcheck: %w", c.prog.Name, err)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s: opcheck: unsound outcome %q", c.prog.Name, bad[0])
	}
	s = tr.begin("explore.walk", k, parent)
	res, err := explore.Run(c.prog, explore.Config{Mode: explore.ModeWalk, Seeds: campaignConfig.ExploreSeeds})
	tr.end(s)
	if err != nil && !errors.Is(err, opcheck.ErrUnsupported) {
		return fmt.Errorf("%s: walk: %w", c.prog.Name, err)
	}
	if err == nil && len(res.Violations) > 0 {
		return fmt.Errorf("%s: walk: %s", c.prog.Name, res.Violations[0].Reason)
	}
	return nil
}

func (w *litmusWL) simCyclesPerOp() float64 { return 0 }

func (w *litmusWL) layers(tr *tracer, m map[string]float64) {
	lt := tr.layers()
	f := w.first
	runs := float64(f.dporRuns)
	m["litmusgen.gen_s"] = lt["litmusgen.gen"].Total
	m["litmusgen.tests"] = float64(w.emitted)
	m["campaign.check_s"] = lt.mean("campaign.check")
	m["mapping.theorem1_s"] = lt.mean("mapping.theorem1")
	m["litmus.enumerate_s"] = lt.mean("litmus.enumerate")
	m["litmus.outcomes"] = ratio(float64(f.outcomes), float64(f.enumerations))
	m["opcheck.check_sound_s"] = lt.mean("opcheck.check_sound")
	m["explore.walk_s"] = lt.mean("explore.walk")
	m["explore.dpor_s"] = lt.mean("explore.dpor")
	m["explore.states"] = ratio(float64(f.states), runs)
	m["explore.states_per_s"] = ratio(ratio(float64(f.states), runs), lt.mean("explore.dpor"))
	m["explore.pruned_ratio"] = ratio(float64(f.pruned), float64(f.states+f.pruned))
	m["explore.coverage_pct"] = ratio(f.coverage, runs)
}

func (w *litmusWL) inputs() []string {
	out := make([]string, len(w.checks))
	for i, c := range w.checks {
		out[i] = c.test.Prog.Name
	}
	sort.Strings(out)
	return out
}

func (w *litmusWL) close() error { return nil }
