// Command xdbench regenerates the paper's evaluation tables and figures
// (Sec. VI) on the reproduction testbed.
//
// Usage:
//
//	xdbench [flags] <experiment> [args]
//
// Experiments:
//
//	fig1            Q3 total vs actual execution time (Garlic/Presto/XDB)
//	fig9 [TD]       overall runtime, all queries x all systems (default TD1)
//	fig10           heterogeneous vendors (MariaDB + Hive)
//	fig11           Presto worker scaling vs XDB
//	table4          delegation plan analysis (Q3/Q5/Q8 x TD1/TD2)
//	fig12           per-query data scalability
//	fig13           average runtime across queries per scale factor
//	fig14 [TD]      bytes transferred (ONP/GEO scenarios)
//	fig15 [TD]      XDB phase breakdown
//	ablations       design-choice ablations A1-A5 (DESIGN.md §5)
//	all             everything above
//	skew            estimate correction under skewed statistics: every
//	                table of the configured queries skewed x0.1 and x10
//	                under TD1-TD3, sampling off/on, cost-based and
//	                forced-explicit movement (DESIGN.md §14; minutes)
//
// Flags:
//
//	-quick          smaller scale (CI-sized)
//	-sf <f>         override the sf10-equivalent scale factor
//	-skip-sclera    drop the slowest baseline from fig9
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"xdb/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run at CI scale")
	sf := flag.Float64("sf", 0, "override the sf10-equivalent scale factor")
	skipSclera := flag.Bool("skip-sclera", false, "skip the Sclera baseline")
	flag.Usage = usage
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *sf > 0 {
		cfg.SF = *sf
	}
	if *skipSclera {
		cfg.SkipSclera = true
	}

	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	name := flag.Arg(0)
	td := "TD1"
	if flag.NArg() > 1 {
		td = flag.Arg(1)
	}

	run := func(title string, f func() (*experiments.Report, error)) {
		start := time.Now()
		r, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "xdbench: %s: %v\n", title, err)
			os.Exit(1)
		}
		fmt.Print(r)
		fmt.Printf("(regenerated in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	experimentsByName := map[string]func(){
		"fig1":   func() { run("fig1", func() (*experiments.Report, error) { return experiments.Figure1(cfg) }) },
		"fig9":   func() { run("fig9", func() (*experiments.Report, error) { return experiments.Figure9(cfg, td) }) },
		"fig10":  func() { run("fig10", func() (*experiments.Report, error) { return experiments.Figure10(cfg) }) },
		"fig11":  func() { run("fig11", func() (*experiments.Report, error) { return experiments.Figure11(cfg) }) },
		"table4": func() { run("table4", func() (*experiments.Report, error) { return experiments.TableIV(cfg) }) },
		"fig12":  func() { run("fig12", func() (*experiments.Report, error) { return experiments.Figure12(cfg) }) },
		"fig13":  func() { run("fig13", func() (*experiments.Report, error) { return experiments.Figure13(cfg) }) },
		"fig14":  func() { run("fig14", func() (*experiments.Report, error) { return experiments.Figure14(cfg, td) }) },
		"fig15":  func() { run("fig15", func() (*experiments.Report, error) { return experiments.Figure15(cfg, td) }) },
		"skew":   func() { run("skew", func() (*experiments.Report, error) { return experiments.SkewSweep(cfg) }) },
		"ablations": func() {
			run("A1", func() (*experiments.Report, error) { return experiments.AblationMovement(cfg) })
			run("A2", func() (*experiments.Report, error) { return experiments.AblationCandidates(cfg) })
			run("A3", func() (*experiments.Report, error) { return experiments.AblationJoinOrder(cfg) })
			run("A4", func() (*experiments.Report, error) { return experiments.AblationVirtualRelations(cfg) })
			run("A5", func() (*experiments.Report, error) { return experiments.AblationBushy(cfg) })
		},
	}

	if name == "all" {
		for _, n := range []string{"fig1", "fig9", "fig10", "fig11", "table4", "fig12", "fig13", "fig14", "fig15", "ablations"} {
			experimentsByName[n]()
		}
		return
	}
	f, ok := experimentsByName[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "xdbench: unknown experiment %q\n\n", name)
		usage()
		os.Exit(2)
	}
	f()
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: xdbench [-quick] [-sf F] [-skip-sclera] <experiment> [TD]

experiments: fig1 fig9 fig10 fig11 table4 fig12 fig13 fig14 fig15 ablations all skew
TD (for fig9/fig14/fig15): TD1 TD2 TD3`)
	flag.PrintDefaults()
}
