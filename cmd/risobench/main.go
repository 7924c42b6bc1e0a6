// Command risobench regenerates the Risotto paper's evaluation figures on
// the simulated testbed.
//
// Usage:
//
//	risobench fig12 [-threads N] [-scale N] [-kernels a,b,c]
//	risobench fig13 [-calls N]
//	risobench fig14 [-calls N]
//	risobench fig15 [-ops N]
//	risobench motivation     # §3 translation-error reproduction
//	risobench verify         # §5.4 Theorem-1 sweep over the corpus
//	risobench all
//
// The shared -workers/-fault/-fault-seed flags tune the litmus
// enumerations behind motivation/verify; -metrics and -trace dump the
// observability snapshot and span trace after the run. With -csv DIR,
// fig12 additionally writes BENCH_fig12.json carrying each workload's
// metric columns from the risotto run's snapshot.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	threads := fs.Int("threads", 4, "guest thread count (fig12)")
	scale := fs.Int("scale", 1, "problem-size multiplier (fig12)")
	kernels := fs.String("kernels", "", "comma-separated kernel subset (fig12)")
	calls := fs.Int("calls", 0, "library invocation count (fig13/fig14; 0 = defaults)")
	ops := fs.Int("ops", 0, "CAS ops per thread (fig15; 0 = default)")
	csvDir := fs.String("csv", "", "also write raw results as CSV into this directory")
	cf := cliflags.Register(fs)
	cf.AddTierUp(fs)
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	check(cf.Check())
	enumOpts, err := cf.LitmusOptions()
	check(err)

	run := func(name string) {
		switch name {
		case "fig12":
			var names []string
			if *kernels != "" {
				names = strings.Split(*kernels, ",")
			}
			var extra []core.Option
			if cf.TierUp.Enabled {
				extra = append(extra, core.WithTierUp(core.TierUpConfig{
					Enabled:          true,
					PromoteThreshold: cf.TierUp.PromoteThreshold,
					SuperblockMax:    cf.TierUp.SuperblockMax,
				}))
			}
			rows, err := bench.Fig12(*threads, *scale, names, extra...)
			check(err)
			fmt.Println(bench.RenderFig12(rows))
			if *csvDir != "" {
				check(bench.WriteFig12CSV(*csvDir, rows))
				check(bench.WriteFig12JSON(*csvDir, rows))
			}
		case "fig13":
			rows, err := bench.Fig13(*calls)
			check(err)
			fmt.Println(bench.RenderLinkRows("Figure 13: OpenSSL and sqlite via the dynamic host linker", rows, "ops/s"))
			if *csvDir != "" {
				check(bench.WriteLinkCSV(*csvDir, "fig13.csv", rows))
			}
		case "fig14":
			rows, err := bench.Fig14(*calls)
			check(err)
			fmt.Println(bench.RenderLinkRows("Figure 14: math library via the dynamic host linker", rows, "ops/ms"))
			if *csvDir != "" {
				check(bench.WriteLinkCSV(*csvDir, "fig14.csv", rows))
			}
		case "fig15":
			rows, err := bench.Fig15(*ops)
			check(err)
			fmt.Println(bench.RenderFig15(rows))
			if *csvDir != "" {
				check(bench.WriteFig15CSV(*csvDir, rows))
			}
		case "motivation":
			fmt.Println(bench.MotivationReport(enumOpts...))
		case "verify":
			fmt.Println(bench.VerifyReport(enumOpts...))
		default:
			usage()
		}
	}

	if cmd == "all" {
		for _, name := range []string{"motivation", "verify", "fig12", "fig13", "fig14", "fig15"} {
			run(name)
		}
	} else {
		run(cmd)
	}
	check(cf.Finish(os.Stdout))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "risobench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: risobench {fig12|fig13|fig14|fig15|motivation|verify|all} [flags]")
	os.Exit(2)
}
