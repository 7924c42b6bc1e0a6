// Package bench regenerates the Risotto paper's evaluation (§7): Figure 12
// (PARSEC+Phoenix runtime relative to QEMU), Figure 13 (OpenSSL/sqlite
// speedups via the host linker), Figure 14 (libm speedups), and Figure 15
// (CAS throughput under contention), plus the §3 motivation results
// (litmus-level translation errors). Results are simulated cycle counts
// converted to time at a nominal 2 GHz (the paper's fixed ThunderX2
// frequency); only relative shapes are meaningful.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hostlib"
	"repro/internal/obs"
	"repro/internal/portasm"
	"repro/internal/workloads"
)

// ClockHz converts simulated cycles to seconds.
const ClockHz = 2e9

// Variants evaluated in Figure 12, in display order.
var Variants = []core.Variant{
	core.VariantNoFences, core.VariantTCGVer, core.VariantRisotto,
}

// RunGuest executes a built guest program under a variant and returns
// (cycles, exitCode, stats). opts apply after the variant and host-linker
// options (last wins): a scheduling quantum, an observability scope to
// read the run's full metric snapshot from, tier-up.
func RunGuest(b *portasm.Builder, v core.Variant, idl string, opts ...core.Option) (uint64, uint64, core.Stats, error) {
	img, err := b.BuildGuest("main")
	if err != nil {
		return 0, 0, core.Stats{}, err
	}
	base := []core.Option{core.WithVariant(v), core.WithHostLinker(idl, nil)}
	rt, err := core.New(img, append(base, opts...)...)
	if err != nil {
		return 0, 0, core.Stats{}, err
	}
	code, err := rt.Run()
	if err != nil {
		return 0, 0, core.Stats{}, err
	}
	return rt.M.MaxCycles(), code, rt.Stats(), nil
}

// RunNative executes a built program natively and returns (cycles, code).
func RunNative(b *portasm.Builder) (uint64, uint64, error) {
	img, err := b.BuildNative("main")
	if err != nil {
		return 0, 0, err
	}
	m, err := portasm.RunNative(img, 0)
	if err != nil {
		return 0, 0, err
	}
	return m.MaxCycles(), m.CPUs[0].ExitCode, nil
}

// --- Figure 12 ---------------------------------------------------------------

// Fig12Row is one benchmark's result: runtime of each setup relative to
// QEMU (lower is better), plus QEMU's absolute simulated seconds and the
// per-workload metric columns sampled from the risotto variant's
// observability snapshot.
type Fig12Row struct {
	Kernel    string             `json:"kernel"`
	Suite     string             `json:"suite"`
	QemuSecs  float64            `json:"qemu_secs"`
	Relative  map[string]float64 `json:"relative"` // variant name (or "native") → runtime/qemu
	Checksums bool               `json:"checksums_agree"`
	Metrics   map[string]uint64  `json:"metrics,omitempty"`
}

// Fig12 runs every requested kernel (all registered kernels if names is
// empty) under all setups. extra options (e.g. core.WithTierUp from the
// -tierup flag) apply to every translated run — QEMU baseline included —
// so the relative columns stay an apples-to-apples comparison.
func Fig12(threads, scale int, names []string, extra ...core.Option) ([]Fig12Row, error) {
	var kernels []workloads.Kernel
	if len(names) == 0 {
		kernels = workloads.Registry()
	} else {
		for _, n := range names {
			k, err := workloads.KernelByName(n)
			if err != nil {
				return nil, err
			}
			kernels = append(kernels, k)
		}
	}

	var rows []Fig12Row
	for _, k := range kernels {
		row := Fig12Row{Kernel: k.Name, Suite: k.Suite,
			Relative: make(map[string]float64), Checksums: true}

		build := func() (*portasm.Builder, error) { return k.Build(threads, scale) }

		b, err := build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		qemuCycles, qemuSum, _, err := RunGuest(b, core.VariantQemu, "", extra...)
		if err != nil {
			return nil, fmt.Errorf("%s/qemu: %w", k.Name, err)
		}
		row.QemuSecs = float64(qemuCycles) / ClockHz

		for _, v := range Variants {
			b, err := build()
			if err != nil {
				return nil, err
			}
			// The risotto run carries a scope so its snapshot becomes the
			// row's metric columns; other variants stay uninstrumented.
			opts := extra
			var sc *obs.Scope
			if v == core.VariantRisotto {
				sc = obs.NewScope("")
				opts = append([]core.Option{core.WithObs(sc)}, extra...)
			}
			cyc, sum, _, err := RunGuest(b, v, "", opts...)
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", k.Name, v, err)
			}
			if sum != qemuSum {
				row.Checksums = false
			}
			row.Relative[v.String()] = float64(cyc) / float64(qemuCycles)
			if sc != nil {
				row.Metrics = MetricColumns(sc.Snapshot())
			}
		}

		b, err = build()
		if err != nil {
			return nil, err
		}
		ncyc, nsum, err := RunNative(b)
		if err != nil {
			return nil, fmt.Errorf("%s/native: %w", k.Name, err)
		}
		if nsum != qemuSum {
			row.Checksums = false
		}
		row.Relative["native"] = float64(ncyc) / float64(qemuCycles)
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig12Summary reports the paper's headline quantities over a Fig12 run.
type Fig12Summary struct {
	// FenceShareMax/Avg: fraction of QEMU runtime attributable to fences
	// (1 − no-fences relative runtime), §7.2's "up to 75%, 48% average".
	FenceShareMax, FenceShareAvg float64
	// TCGVerGainMax/Avg: improvement of the verified mappings over QEMU,
	// §7.2's "up to 19.7%, 6.7% on average".
	TCGVerGainMax, TCGVerGainAvg float64
	// LinkerOverheadAvg: |risotto − tcg-ver| mean relative difference —
	// §7.3's "no impact when no host function is linked".
	LinkerOverheadAvg float64
}

// Summarize computes Fig12Summary from rows.
func Summarize(rows []Fig12Row) Fig12Summary {
	var s Fig12Summary
	if len(rows) == 0 {
		return s
	}
	for _, r := range rows {
		fence := 1 - r.Relative["no-fences"]
		gain := 1 - r.Relative["tcg-ver"]
		if fence > s.FenceShareMax {
			s.FenceShareMax = fence
		}
		if gain > s.TCGVerGainMax {
			s.TCGVerGainMax = gain
		}
		s.FenceShareAvg += fence
		s.TCGVerGainAvg += gain
		d := r.Relative["risotto"] - r.Relative["tcg-ver"]
		if d < 0 {
			d = -d
		}
		s.LinkerOverheadAvg += d
	}
	n := float64(len(rows))
	s.FenceShareAvg /= n
	s.TCGVerGainAvg /= n
	s.LinkerOverheadAvg /= n
	return s
}

// RenderFig12 formats rows as the paper's Figure 12 (runtime relative to
// QEMU, lower is better).
func RenderFig12(rows []Fig12Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 12: run time relative to QEMU (lower is better); raw QEMU seconds in last column\n")
	fmt.Fprintf(&sb, "%-18s %-8s %10s %10s %10s %10s %12s %s\n",
		"benchmark", "suite", "no-fences", "tcg-ver", "risotto", "native", "qemu-secs", "agree")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %-8s %9.1f%% %9.1f%% %9.1f%% %9.1f%% %12.4f %v\n",
			r.Kernel, r.Suite,
			100*r.Relative["no-fences"], 100*r.Relative["tcg-ver"],
			100*r.Relative["risotto"], 100*r.Relative["native"],
			r.QemuSecs, r.Checksums)
	}
	s := Summarize(rows)
	fmt.Fprintf(&sb, "\nfence share of QEMU runtime: avg %.1f%%, max %.1f%% (paper: 48%%, 75%%)\n",
		100*s.FenceShareAvg, 100*s.FenceShareMax)
	fmt.Fprintf(&sb, "tcg-ver improvement over QEMU: avg %.1f%%, max %.1f%% (paper: 6.7%%, 19.7%%)\n",
		100*s.TCGVerGainAvg, 100*s.TCGVerGainMax)
	fmt.Fprintf(&sb, "risotto vs tcg-ver (unused linker overhead): avg %.2f%% (paper: none)\n",
		100*s.LinkerOverheadAvg)
	return sb.String()
}

// --- Figures 13 and 14 --------------------------------------------------------

// LinkRow is one library benchmark: QEMU-translated throughput and the
// speedups of the linked and native executions.
type LinkRow struct {
	Name           string
	QemuOps        float64 // ops/s under QEMU (translated guest library)
	RisottoSpeedup float64 // linked / qemu
	NativeSpeedup  float64 // native / qemu
}

// libBench describes one fig13/fig14 entry.
type libBench struct {
	name  string
	build func(calls int) (*portasm.Builder, error)
	calls int
	// nativeCostPerCall is the pure host cost of one call (hostlib cost
	// model), giving the "native" series.
	nativeCostPerCall func() (uint64, error)
}

func hostCost(fn string, args ...uint64) func() (uint64, error) {
	return func() (uint64, error) {
		lib := hostlib.Default()
		f, ok := lib.Lookup(fn)
		if !ok {
			return 0, fmt.Errorf("bench: host library lacks %q", fn)
		}
		mem := make([]byte, 1<<20)
		_, cycles := f(mem, args)
		return cycles, nil
	}
}

func runLinkRow(lb libBench) (LinkRow, error) {
	b, err := lb.build(lb.calls)
	if err != nil {
		return LinkRow{}, err
	}
	qemuCycles, _, _, err := RunGuest(b, core.VariantQemu, "")
	if err != nil {
		return LinkRow{}, fmt.Errorf("%s/qemu: %w", lb.name, err)
	}
	b, err = lb.build(lb.calls)
	if err != nil {
		return LinkRow{}, err
	}
	linkedCycles, _, st, err := RunGuest(b, core.VariantRisotto, workloads.IDLAll)
	if err != nil {
		return LinkRow{}, fmt.Errorf("%s/risotto: %w", lb.name, err)
	}
	if st.HostCalls == 0 {
		return LinkRow{}, fmt.Errorf("%s: linker did not engage", lb.name)
	}
	nativePerCall, err := lb.nativeCostPerCall()
	if err != nil {
		return LinkRow{}, err
	}

	perQemu := float64(qemuCycles) / float64(lb.calls)
	perLinked := float64(linkedCycles) / float64(lb.calls)
	perNative := float64(nativePerCall)
	return LinkRow{
		Name:           lb.name,
		QemuOps:        ClockHz / perQemu,
		RisottoSpeedup: perQemu / perLinked,
		NativeSpeedup:  perQemu / perNative,
	}, nil
}

// Fig13 runs the OpenSSL and sqlite benchmarks. calls scales the per-bench
// invocation count (0 = defaults).
func Fig13(calls int) ([]LinkRow, error) {
	def := func(n int) int {
		if calls > 0 {
			return calls
		}
		return n
	}
	benches := []libBench{
		{"md5-1024", func(c int) (*portasm.Builder, error) { return workloads.DigestProgram("md5", 1024, c) },
			def(8), hostCost("md5", 0x100, 1024)},
		{"md5-8192", func(c int) (*portasm.Builder, error) { return workloads.DigestProgram("md5", 8192, c) },
			def(3), hostCost("md5", 0x100, 8192)},
		{"rsa1024-sign", func(c int) (*portasm.Builder, error) { return workloads.RSAProgram(1024, true, c) },
			def(4), hostCost("rsa1024_sign", 7)},
		{"rsa1024-verify", func(c int) (*portasm.Builder, error) { return workloads.RSAProgram(1024, false, c) },
			def(16), hostCost("rsa1024_verify", 7)},
		{"rsa2048-sign", func(c int) (*portasm.Builder, error) { return workloads.RSAProgram(2048, true, c) },
			def(2), hostCost("rsa2048_sign", 7)},
		{"rsa2048-verify", func(c int) (*portasm.Builder, error) { return workloads.RSAProgram(2048, false, c) },
			def(16), hostCost("rsa2048_verify", 7)},
		{"sha1-1024", func(c int) (*portasm.Builder, error) { return workloads.DigestProgram("sha1", 1024, c) },
			def(8), hostCost("sha1", 0x100, 1024)},
		{"sha1-8192", func(c int) (*portasm.Builder, error) { return workloads.DigestProgram("sha1", 8192, c) },
			def(3), hostCost("sha1", 0x100, 8192)},
		{"sha256-1024", func(c int) (*portasm.Builder, error) { return workloads.DigestProgram("sha256", 1024, c) },
			def(8), hostCost("sha256", 0x100, 1024)},
		{"sha256-8192", func(c int) (*portasm.Builder, error) { return workloads.DigestProgram("sha256", 8192, c) },
			def(3), hostCost("sha256", 0x100, 8192)},
		{"sqlite", func(c int) (*portasm.Builder, error) { return workloads.SqliteProgram(512, c) },
			def(4), hostCost("sqlite_exec", 0x100, 512, 1)},
	}
	var rows []LinkRow
	for _, lb := range benches {
		row, err := runLinkRow(lb)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig14 runs the math-library benchmarks.
func Fig14(calls int) ([]LinkRow, error) {
	if calls <= 0 {
		calls = 24
	}
	var rows []LinkRow
	for _, fn := range workloads.MathNames() {
		fn := fn
		row, err := runLinkRow(libBench{
			name: fn,
			build: func(c int) (*portasm.Builder, error) {
				return workloads.MathProgram(fn, c)
			},
			calls:             calls,
			nativeCostPerCall: hostCost(fn, 0x28F5C), // some Q16.16-ish bits
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderLinkRows formats Figure 13/14-style speedup tables.
func RenderLinkRows(title string, rows []LinkRow, unit string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (speedup vs QEMU, higher is better; raw QEMU values in %s)\n", title, unit)
	fmt.Fprintf(&sb, "%-16s %12s %12s %14s\n", "benchmark", "risotto", "native", "qemu-"+unit)
	for _, r := range rows {
		q := r.QemuOps
		if unit == "ops/ms" {
			q /= 1000
		}
		fmt.Fprintf(&sb, "%-16s %11.1fx %11.1fx %14.1f\n",
			r.Name, r.RisottoSpeedup, r.NativeSpeedup, q)
	}
	return sb.String()
}

// --- Figure 15 ---------------------------------------------------------------

// Fig15Row is one (threads, vars) configuration's CAS throughput.
type Fig15Row struct {
	Threads, Vars int
	// Throughput in CAS ops/s for each setup.
	Qemu, Risotto, Native float64
}

// Fig15 runs the CAS contention sweep. opsPerThread scales work
// (0 = default).
func Fig15(opsPerThread int) ([]Fig15Row, error) {
	if opsPerThread <= 0 {
		opsPerThread = 400
	}
	// Contention costs come from the machine's cache-line transfer model;
	// the default quantum keeps retry dynamics comparable across the
	// helper and inline CAS paths (the helper path's longer load-to-CAS
	// window would otherwise retry disproportionately).
	const quantum = 64
	var rows []Fig15Row
	for _, cfg := range workloads.Fig15Configs() {
		threads, vars := cfg[0], cfg[1]
		totalOps := float64(threads * opsPerThread)

		run := func(v core.Variant) (float64, error) {
			b, err := workloads.CASBench(threads, vars, opsPerThread)
			if err != nil {
				return 0, err
			}
			cyc, sum, _, err := RunGuest(b, v, "", core.WithQuantum(quantum))
			if err != nil {
				return 0, err
			}
			if sum != uint64(threads*opsPerThread) {
				return 0, fmt.Errorf("casbench %d-%d/%v: bad checksum %d", threads, vars, v, sum)
			}
			return totalOps / (float64(cyc) / ClockHz), nil
		}

		q, err := run(core.VariantQemu)
		if err != nil {
			return nil, err
		}
		r, err := run(core.VariantRisotto)
		if err != nil {
			return nil, err
		}
		b, err := workloads.CASBench(threads, vars, opsPerThread)
		if err != nil {
			return nil, err
		}
		nimg, err := b.BuildNative("main")
		if err != nil {
			return nil, err
		}
		nm, err := portasm.RunNativeQuantum(nimg, quantum, 0)
		if err != nil {
			return nil, err
		}
		ncyc, nsum := nm.MaxCycles(), nm.CPUs[0].ExitCode
		if nsum != uint64(threads*opsPerThread) {
			return nil, fmt.Errorf("casbench %d-%d/native: bad checksum %d", threads, vars, nsum)
		}
		rows = append(rows, Fig15Row{
			Threads: threads, Vars: vars,
			Qemu: q, Risotto: r,
			Native: totalOps / (float64(ncyc) / ClockHz),
		})
	}
	return rows, nil
}

// RenderFig15 formats the CAS sweep.
func RenderFig15(rows []Fig15Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 15: CAS throughput (Mops/s) under contention (higher is better)\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s %12s\n", "cfg(T-V)", "qemu", "risotto", "native", "riso/qemu")
	var uncontended, all []float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %10.1f %10.1f %10.1f %11.1f%%\n",
			fmt.Sprintf("%d-%d", r.Threads, r.Vars),
			r.Qemu/1e6, r.Risotto/1e6, r.Native/1e6,
			100*(r.Risotto/r.Qemu-1))
		gain := r.Risotto/r.Qemu - 1
		all = append(all, gain)
		if r.Threads == r.Vars {
			uncontended = append(uncontended, gain)
		}
	}
	fmt.Fprintf(&sb, "\nuncontended (T==V) risotto gain: avg %.1f%% (paper: up to 48%%, avg 14.5%% over all configs)\n",
		100*mean(uncontended))
	fmt.Fprintf(&sb, "all-config risotto gain: avg %.1f%%\n", 100*mean(all))
	return sb.String()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MetricColumns flattens a snapshot into the per-workload metric columns
// exported to BENCH_fig12.json: every counter verbatim, every non-negative
// gauge under a "gauge." prefix.
func MetricColumns(snap obs.Snapshot) map[string]uint64 {
	out := make(map[string]uint64, len(snap.Counters)+len(snap.Gauges))
	for name, v := range snap.Counters {
		out[name] = v
	}
	for name, v := range snap.Gauges {
		if v >= 0 {
			out["gauge."+name] = uint64(v)
		}
	}
	return out
}
