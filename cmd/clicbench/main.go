// Command clicbench regenerates the paper's tables and figures on the
// simulated cluster. Each experiment id maps to one artefact of the
// evaluation section (see DESIGN.md's per-experiment index):
//
//	fig4        CLIC bandwidth: MTU 1500/9000 x 0/1-copy      (E1)
//	fig5        CLIC vs TCP/IP bandwidth                      (E2)
//	fig6        CLIC, MPI-CLIC, MPI(TCP), PVM(TCP)            (E3)
//	fig7        1400 B pipeline stage timing                  (E4)
//	headline    §4/§5 summary numbers vs paper                (E5)
//	compare     CLIC vs GAMMA vs VIA                          (E6)
//	interrupts  interrupt rate vs coalescing                  (E7)
//	paths       Fig. 1 send-path ablation                     (E8)
//	frag        NIC fragmentation offload                     (E9)
//	bonding     channel bonding + intra-node                  (E10)
//	loss        injected-loss sweep: recovery cost            (E12)
//	profile     live workload under CPU profile, per-stage table (E17)
//	all         every simulated experiment above (not profile)
//
// The profile experiment runs wall-clock goroutines over loopback UDP;
// measuring whether a change made the live stack faster or slower is
// benchmark/run.sh's job, not this command's.
//
// Usage:
//
//	clicbench [-chart] [-csv dir] [-cpuprofile file] <experiment>...
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/model"
	"repro/internal/perfreg"
)

var experiments = map[string]func(*model.Params) *bench.Report{
	"fig4":        bench.Fig4,
	"fig5":        bench.Fig5,
	"fig6":        bench.Fig6,
	"fig7":        bench.Fig7,
	"headline":    bench.Headline,
	"compare":     bench.Compare,
	"interrupts":  bench.Interrupts,
	"paths":       bench.Paths,
	"frag":        bench.Frag,
	"bonding":     bench.Bonding,
	"multiprog":   bench.Multiprog,
	"collectives": bench.Collectives,
	"jitter":      bench.Jitter,
	"latency":     bench.LatencyDistribution,
	"loss":        bench.LossSweep,
}

var order = []string{
	"fig4", "fig5", "fig6", "fig7", "headline",
	"compare", "interrupts", "paths", "frag", "bonding", "multiprog",
	"collectives", "jitter", "latency", "loss",
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "clicbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	chart := flag.Bool("chart", false, "also render ASCII charts for sweep figures")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files into")
	cpuprofile := flag.String("cpuprofile", "", "write a stage-labelled CPU profile of the executed experiments to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: clicbench [flags] <experiment>...\nexperiments: %v, profile, all\n", order)
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var names []string
	for _, a := range args {
		if a == "all" {
			names = append(names, order...)
			continue
		}
		if _, ok := experiments[a]; !ok && a != "profile" {
			fmt.Fprintf(os.Stderr, "clicbench: unknown experiment %q\n", a)
			os.Exit(2)
		}
		names = append(names, a)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("%v", err)
		}
		perfreg.Enable() // stage labels make the capture sliceable per stage
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("   wrote CPU profile to %s (slice per stage: go tool pprof -tagfocus %s=<stage>)\n",
				*cpuprofile, perfreg.LabelKey)
		}()
	}

	for _, name := range names {
		var rep *bench.Report
		if name == "profile" {
			if *cpuprofile != "" {
				fatalf("the profile experiment captures its own CPU profile; drop -cpuprofile or run other experiments")
			}
			var err error
			rep, _, err = bench.ProfileRun()
			if err != nil {
				fatalf("profile experiment: %v", err)
			}
		} else {
			rep = experiments[name](nil)
		}
		fmt.Println(rep.Table())
		if *chart {
			if c := rep.Chart(72, 18); c != "" {
				fmt.Println(c)
			}
		}
		if *csvDir != "" && len(rep.Rows) > 0 {
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
				fatalf("writing %s: %v", path, err)
			}
			fmt.Printf("   wrote %s\n\n", path)
		}
	}
}
