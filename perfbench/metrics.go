package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports (BENCHMARK.json
// "end_to_end"). fail_ratio and sim_cycles_per_op are printed too but not
// gated: fail_ratio is 0 on a correct program and the result line carries
// failed/attempted, and sim_cycles_per_op does not exist on litmus (it is
// the per-layer machine.sim_cycles_per_op).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_s", "s"},
	{"op_p90_s", "s"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer lists the metrics a traced run reports (BENCHMARK.json
// "per_layer"). Every traced run reports all of them; a layer the
// workload never calls reads 0.
var perLayer = []metricDef{
	{"core.new_s", "s"},
	{"core.run_s", "s"},
	{"core.exec_s", "s"},
	{"core.blocks", "count"},
	{"core.guest_bytes", "bytes"},
	{"core.host_insts", "count"},
	{"core.helper_calls", "count"},
	{"core.syscalls", "count"},
	{"core.chain_patches", "count"},
	{"core.cache_flushes", "count"},
	{"core.expansion", "ratio"},
	{"core.translate_share", "ratio"},
	{"machine.sim_cycles_per_op", "cycles"},
	{"machine.insts", "count"},
	{"machine.insts_per_s", "1/s"},
	{"machine.atomic_exec", "count"},
	{"machine.dmb_exec", "count"},
	{"machine.native_run_s", "s"},
	{"machine.native_insts_per_s", "1/s"},
	{"frontend.translate_s", "s"},
	{"frontend.ir_ops", "count"},
	{"tcg.optimize_s", "s"},
	{"tcg.ir_ops_out", "count"},
	{"tcg.fences_in", "count"},
	{"tcg.fences_out", "count"},
	{"backend.generate_s", "s"},
	{"backend.host_insts", "count"},
	{"transcache.hit_ratio", "ratio"},
	{"transcache.stores", "count"},
	{"transcache.load_s", "s"},
	{"transcache.store_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.exec_s", "s"},
	{"serve.shed", "count"},
	{"serve.retries", "count"},
	{"bench.late_p90_s", "s"},
	{"bench.trace_overhead", "ratio"},
	{"litmusgen.gen_s", "s"},
	{"litmusgen.tests", "count"},
	{"campaign.check_s", "s"},
	{"mapping.theorem1_s", "s"},
	{"litmus.enumerate_s", "s"},
	{"litmus.outcomes", "count"},
	{"opcheck.check_sound_s", "s"},
	{"explore.walk_s", "s"},
	{"explore.dpor_s", "s"},
	{"explore.states", "count"},
	{"explore.states_per_s", "1/s"},
	{"explore.pruned_ratio", "ratio"},
	{"explore.coverage_pct", "%"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// latencies summarizes op latencies. Failed ops count as +Inf: a failed
// or refused op misses every latency limit.
type latencies []float64

// quantile returns the nearest-rank q-quantile.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond counts samples strictly above the q-quantile.
func (l latencies) beyond(q float64) int {
	v := l.quantile(q)
	n := 0
	for _, x := range l {
		if x > v {
			n++
		}
	}
	return n
}

func median(xs []float64) float64 { return latencies(xs).quantile(0.5) }

// machineInfo is the provenance recorded in every result.
type machineInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	DaemonRate float64 `json:"daemon_rate_per_s"`
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// capProcs bounds GOMAXPROCS by the CPUs this process may run on and
// returns the value in force.
func capProcs() int {
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	return runtime.GOMAXPROCS(0)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
