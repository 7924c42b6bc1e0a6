package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/workloads"
)

// fig12Threads and fig12Scale are the guest size of every fig12 op: four
// vCPUs interleaved on the one host goroutine that calls Run.
const (
	fig12Threads = 4
	fig12Scale   = 1
)

// fig12 runs the paper's Figure 12 kernels end to end, alternating the
// qemu and risotto variants. Tier-up stays off: background promotion
// makes simulated cycles depend on host timing and adds goroutines.
type fig12 struct {
	seed  int64
	progs []program // in the seed's kernel order
	first dbtCounts // counts of the first cycle of the last window
}

var fig12Variants = [2]core.Variant{core.VariantQemu, core.VariantRisotto}

func (w *fig12) setup(tr *tracer) error {
	kernels := workloads.Registry()
	rng := rand.New(rand.NewSource(w.seed))
	rng.Shuffle(len(kernels), func(i, j int) { kernels[i], kernels[j] = kernels[j], kernels[i] })
	w.progs = w.progs[:0]
	for _, k := range kernels {
		pb, err := k.Build(fig12Threads, fig12Scale)
		if err != nil {
			return fmt.Errorf("fig12: building %s: %w", k.Name, err)
		}
		p, err := buildProgram(tr, k.Name, pb)
		if err != nil {
			return fmt.Errorf("fig12: %w", err)
		}
		w.progs = append(w.progs, p)
	}
	return nil
}

// cycle is every kernel under both variants.
func (w *fig12) cycle() int { return 2 * len(w.progs) }

func (w *fig12) input(k int) (program, core.Variant) {
	i := k % w.cycle()
	return w.progs[i/2], fig12Variants[i%2]
}

func (w *fig12) measure(seconds float64, tr *tracer) phase {
	return measureDBT(seconds, tr, w.cycle(), w.input, &w.first)
}

func (w *fig12) simCyclesPerOp() float64 { return w.first.cyclesPerOp() }

func (w *fig12) layers(tr *tracer, m map[string]float64) {
	lt := tr.layers()
	dbtLayers(lt, w.first, m)
	nativeLayers(lt, w.progs, m)
}

func (w *fig12) inputs() []string {
	out := make([]string, len(w.progs))
	for i, p := range w.progs {
		out[i] = p.name
	}
	return out
}

func (w *fig12) close() error { return nil }
