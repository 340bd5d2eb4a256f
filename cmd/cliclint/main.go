// Command cliclint is the multichecker driver for the CLIC invariant
// suite: it loads the requested packages from source (offline, stdlib
// only) and applies every registered analyzer, printing findings in the
// usual file:line:col format and exiting non-zero when any are found.
//
// Usage:
//
//	go run ./cmd/cliclint ./...            # whole tree (what make lint runs)
//	go run ./cmd/cliclint ./internal/clic  # one package
//	go run ./cmd/cliclint -tests ./...     # include in-package _test.go files
//	go run ./cmd/cliclint -list            # show the analyzers and exit
//
// The suite encodes the invariants the paper's layer-deletion argument
// leans on (see DESIGN.md, "Static analysis & invariants"):
//
//	clicerr         Send-family transport errors must not be discarded
//	simtime         sim-clock packages must not read wall time or the
//	                global rand source
//	bufown          zero-copy buffers must not be touched after handoff
//	metricname      telemetry names/label keys constant and snake_case
//	tracestage      flight-journal stage names must be the named
//	                constants from repro/internal/trace
//	lockorder       //lockorder: rank hierarchy: ranks strictly
//	                increase along every acquisition chain
//	blockunderlock  no blocking operation under a ranked lock (unless
//	                declared blockok)
//	atomicmix       no plain access to atomically-accessed variables;
//	                64-bit atomics aligned on 32-bit layouts
//
// cliclint complements `go vet` (which make lint also runs); it does
// not replace it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/blockunderlock"
	"repro/internal/analysis/bufown"
	"repro/internal/analysis/clicerr"
	"repro/internal/analysis/loader"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/metricname"
	"repro/internal/analysis/simtime"
	"repro/internal/analysis/tracestage"
)

// analyzers is the suite, in report order.
var analyzers = []*analysis.Analyzer{
	clicerr.Analyzer,
	simtime.Analyzer,
	bufown.Analyzer,
	metricname.Analyzer,
	tracestage.Analyzer,
	lockorder.Analyzer,
	blockunderlock.Analyzer,
	atomicmix.Analyzer,
}

func main() {
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	simtimePkgs := flag.String("simtime.pkgs", "",
		"comma-separated package-path regexps simtime applies to (overrides the built-in list)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cliclint [flags] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Analyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *simtimePkgs != "" {
		simtime.Packages = strings.Split(*simtimePkgs, ",")
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(loader.Config{Tests: *tests}, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cliclint: %v\n", err)
		os.Exit(2)
	}

	found := 0
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d analysis.Diagnostic) {
				found++
				fmt.Printf("%s: %s (%s)\n", pkg.Fset.Position(d.Pos), d.Message, a.Name)
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "cliclint: %s on %s: %v\n", a.Name, pkg.Path, err)
				os.Exit(2)
			}
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "cliclint: %d finding(s)\n", found)
		os.Exit(1)
	}
}
