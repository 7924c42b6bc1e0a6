// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four workloads (fig12, coldcode, daemon, litmus) for a fixed time,
// checks every op against an independent reference, prints each metric by
// name with its unit, and ends with a one-line JSON result. With -trace 1
// it times its own calls into each layer's public API instead and reports
// the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one named traffic shape.
type workload interface {
	// setup builds everything the timed ops need: inputs, guest and
	// native builds, native reference runs, servers. Each call replaces
	// the state of the previous one.
	setup(tr *tracer) error
	// measure runs one timed window of at least seconds; with a non-nil
	// tracer it records spans around the calls into each layer.
	measure(seconds float64, tr *tracer) phase
	// simCyclesPerOp is the mean simulated cycles per op over a fixed
	// set of ops of the last window (0 where no guest runs).
	simCyclesPerOp() float64
	// layers fills the per-layer metrics after a traced window.
	layers(tr *tracer, m map[string]float64)
	// inputs names the generated inputs, to tell seeds apart.
	inputs() []string
	close() error
}

// daemonRate is the daemon workload's arrival rate in jobs per second.
const daemonRate = 12

func newWorkload(name string, seed int64, seconds float64) (workload, error) {
	switch name {
	case "fig12":
		return &fig12{seed: seed}, nil
	case "coldcode":
		return &coldcode{seed: seed}, nil
	case "daemon":
		return newDaemon(seed, daemonRate, seconds), nil
	case "litmus":
		return &litmusWL{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig12, coldcode, daemon or litmus)", name)
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median.
const setupRepeats = 5

// report is everything one run measured; the result file holds it whole.
type report struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Machine   machineInfo       `json:"machine"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Printed   []string          `json:"-"`
	// P90N is the number of latencies op_p90_s is taken over; P90Beyond
	// how many of them lie beyond it.
	P90N      int        `json:"p90_samples"`
	P90Beyond int        `json:"p90_beyond"`
	SetupS    []float64  `json:"setup_runs_s,omitempty"`
	Layers    layerTimes `json:"layers,omitempty"`
	Inputs    []string   `json:"inputs"`
	// Latencies lists every op's latency in order; -1 marks a failed op.
	Latencies []float64 `json:"latencies_s"`
}

// execute runs one workload and returns its report. The tracer of a
// traced run is returned so its spans can be written out.
func execute(name string, seed int64, seconds float64, traced bool, mi machineInfo) (*report, *tracer, error) {
	w, err := newWorkload(name, seed, seconds)
	if err != nil {
		return nil, nil, err
	}
	rep := &report{Workload: name, Trace: traced, Machine: mi, Seconds: seconds, Metrics: make(map[string]metric)}
	set := func(name, unit string, v float64) {
		rep.Metrics[name] = metric{Value: v, Unit: unit}
		rep.Printed = append(rep.Printed, name)
	}

	if !traced {
		for r := 0; r < setupRepeats; r++ {
			runtime.GC()
			t0 := time.Now()
			if err := w.setup(nil); err != nil {
				w.close()
				return nil, nil, err
			}
			rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
		}
		ph := w.measure(seconds, nil)
		if err := w.close(); err != nil {
			return nil, nil, err
		}
		rep.Attempted, rep.Failed, rep.Errors = ph.attempted, ph.failed, ph.errs
		rep.P90N, rep.P90Beyond = len(ph.lat), ph.lat.beyond(0.9)
		for _, l := range ph.lat {
			if math.IsInf(l, 1) {
				l = -1
			}
			rep.Latencies = append(rep.Latencies, l)
		}
		set("setup_s", "s", median(rep.SetupS))
		set("ops_per_s", "1/s", ph.opsPerS())
		set("op_p50_s", "s", ph.lat.quantile(0.5))
		set("op_p90_s", "s", ph.lat.quantile(0.9))
		if c := w.simCyclesPerOp(); c > 0 {
			set("sim_cycles_per_op", "cycles", c)
		}
		set("fail_ratio", "ratio", float64(ph.failed)/float64(ph.attempted))
		set("alloc_mb_per_op", "MB", float64(ph.alloc)/1e6/float64(ph.attempted))
		rep.Inputs = w.inputs()
		return rep, nil, nil
	}

	// The traced run: set up once with spans on, measure half the time
	// untraced and half traced; the ratio of their throughputs is the
	// tracing overhead.
	tr := newTracer()
	if err := w.setup(tr); err != nil {
		w.close()
		return nil, nil, err
	}
	plain := w.measure(seconds/2, nil)
	tracedPh := w.measure(seconds/2, tr)
	if err := w.close(); err != nil {
		return nil, nil, err
	}
	ph := plain.add(tracedPh)
	rep.Attempted, rep.Failed, rep.Errors = ph.attempted, ph.failed, ph.errs
	rep.P90N, rep.P90Beyond = len(ph.lat), ph.lat.beyond(0.9)
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	w.layers(tr, m)
	m["bench.trace_overhead"] = ratio(plain.opsPerS(), tracedPh.opsPerS())
	for _, d := range perLayer {
		set(d.name, d.unit, m[d.name])
	}
	rep.Layers = tr.layers()
	rep.Inputs = w.inputs()
	return rep, tr, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fig12, coldcode, daemon or litmus")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 15, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fs.String("out", "", "directory for the result file and, when traced, the spans")
	commit := fs.String("commit", "unknown", "source commit recorded in the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	mi := machineInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: capProcs(),
		GoVersion:  runtime.Version(),
		Commit:     *commit,
		Seed:       *seed,
		DaemonRate: daemonRate,
	}
	rep, tr, err := execute(*name, *seed, *seconds, *traceFlag == 1, mi)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d trace=%d cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s daemon_rate=%d/s\n",
		rep.Workload, mi.Seed, *traceFlag, mi.CPUModel, mi.NProc, mi.GOMAXPROCS, mi.GoVersion, mi.Commit, daemonRate)
	for _, n := range rep.Printed {
		m := rep.Metrics[n]
		note := ""
		switch n {
		case "op_p90_s":
			note = fmt.Sprintf("  (over %d ops, %d of them beyond it)", rep.P90N, rep.P90Beyond)
		case "fail_ratio":
			note = fmt.Sprintf("  (%d of %d)", rep.Failed, rep.Attempted)
		case "setup_s":
			note = fmt.Sprintf("  (median of %d set-ups)", len(rep.SetupS))
		}
		fmt.Fprintf(stdout, "%-9s %-28s %-14.6g %s%s\n", rep.Workload, n, m.Value, m.Unit, note)
	}
	if rep.Trace {
		fmt.Fprintf(stdout, "%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
		for _, n := range sortedNames(rep.Layers) {
			l := rep.Layers[n]
			fmt.Fprintf(stdout, "%-28s %8d %12.6f %12.6f\n", n, l.Count, l.Total, l.Self)
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(stderr, "perfbench: failed", e)
	}
	if *out != "" {
		if err := writeResult(*out, rep, tr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}

	// The result line carries exactly the gated set for this mode.
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	line := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		line.Metrics[d.name] = rep.Metrics[d.name]
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	return 0
}

// writeResult writes the whole report, and a traced run's spans, under dir.
// The file name carries the commit, the time and the process id besides
// the workload and seed, so no run overwrites another's record.
func writeResult(dir string, rep *report, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	commit := rep.Machine.Commit
	if len(commit) > 12 {
		commit = commit[:12]
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t-%s-%s-%d", rep.Workload, rep.Machine.Seed, rep.Trace,
		commit, time.Now().UTC().Format("20060102T150405.000Z"), os.Getpid()))
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.writeTSV(base + ".spans.tsv")
	}
	return nil
}
