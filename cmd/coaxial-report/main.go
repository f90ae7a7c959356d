// Command coaxial-report regenerates the paper's figures and tables as
// text, printing the same rows/series each figure reports.
//
// Every selected figure, table and ablation declares its simulation
// points on one coaxial.Plan; the plan runs each distinct point once on
// one Runner (so the main sweep behind Figs. 2b/5/9 and Tables IV/V, and
// the points Figs. 7, 8, 10 and 11 share with it, simulate once), then
// the outputs print in order. The requested and distinct point counts and
// the plan's wall time go to stderr; each "[fig N regenerated in ...]"
// line times only that figure's own rendering and non-plan work.
//
// Usage:
//
//	coaxial-report -fig 5                  # Fig. 5 on the full suite
//	coaxial-report -fig 7 -quick           # representative subset
//	coaxial-report -table 2                # static derivation, no sims
//	coaxial-report -all -quick             # everything, subset where slow
//
// Figures: 1, 2a, 2b, 5, 6, 7, 8, 9, 10, 11. Tables: 1, 2, 3, 4, 5.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"coaxial"
)

func main() {
	var (
		fig       = flag.String("fig", "", "figure to regenerate (1, 2a, 2b, 5, 6, 7, 8, 9, 10, 11)")
		table     = flag.String("table", "", "table to regenerate (1, 2, 3, 4, 5)")
		ablations = flag.Bool("ablations", false, "run the extension studies (capacity/cost, channel scaling, CALM threshold, MSHRs)")
		all       = flag.Bool("all", false, "regenerate everything")
		quick     = flag.Bool("quick", false, "representative workload subset and short windows")
		measure   = flag.Uint64("measure", 0, "override measured instructions per core")
		seed      = flag.Uint64("seed", 1, "workload generation seed")
	)
	flag.Parse()

	rc := coaxial.DefaultRunConfig()
	rc.Seed = *seed
	workloads := coaxial.Workloads()
	if *quick {
		rc.WarmupInstr, rc.MeasureInstr = 10_000, 60_000
		workloads = coaxial.RepresentativeWorkloads()
	}
	if *measure > 0 {
		rc.MeasureInstr = *measure
	}

	r := &reporter{rc: rc, workloads: workloads, quick: *quick,
		plan: coaxial.NewRunner(coaxial.WithRunConfig(rc)).Plan()}
	var outputs []func()
	switch {
	case *all:
		for _, f := range []string{"1", "2a", "2b", "5", "6", "7", "8", "9", "10", "11"} {
			outputs = append(outputs, r.figure(f))
		}
		for _, t := range []string{"1", "2", "3", "4", "5"} {
			outputs = append(outputs, r.table(t))
		}
	case *fig == "" && *table == "" && !*ablations:
		flag.Usage()
		os.Exit(2)
	default:
		if *fig != "" {
			outputs = append(outputs, r.figure(*fig))
		}
		if *table != "" {
			outputs = append(outputs, r.table(*table))
		}
		if *ablations {
			outputs = append(outputs, r.ablations())
		}
	}

	requested, distinct := r.plan.Points()
	start := time.Now()
	r.plan.Run(context.Background())
	fmt.Fprintf(os.Stderr, "coaxial-report: plan: %d points requested, %d distinct, simulated in %.1fs\n",
		requested, distinct, time.Since(start).Seconds())
	for _, out := range outputs {
		out()
	}
}

type reporter struct {
	rc        coaxial.RunConfig
	workloads []coaxial.Workload
	quick     bool
	plan      *coaxial.Plan
}

// figure declares figure f's points and returns the function printing it.
func (r *reporter) figure(f string) func() {
	var show func()
	switch f {
	case "1":
		show = func() { coaxial.ReportFig1(os.Stdout) }
	case "2a":
		show = func() {
			utils := []float64{0.02, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
			reqs := 20000
			if r.quick {
				reqs = 4000
			}
			pts, err := coaxial.Fig2aLoadLatency(utils, reqs/10, reqs, r.rc.Seed)
			check(err)
			coaxial.ReportFig2a(os.Stdout, pts)
		}
	case "2b":
		show = printRows(r.plan.MainResults(r.workloads), coaxial.ReportFig2b)
	case "5":
		show = printRows(r.plan.MainResults(r.workloads), coaxial.ReportFig5)
	case "6":
		n := 10
		if r.quick {
			n = 3
		}
		show = printRows(r.plan.Fig6Mixes(n), coaxial.ReportFig6)
	case "7":
		wl := r.workloads
		if !r.quick && len(wl) > 8 {
			// The paper's Fig. 7 shows four workloads plus the mean; a
			// full 36x12 sweep is available with -fig 7 -measure ... by
			// editing the subset here, but the default keeps it tractable.
			wl = coaxial.RepresentativeWorkloads()
		}
		show = printRows(r.plan.Fig7CALM(wl), coaxial.ReportFig7)
	case "8":
		show = printRows(r.plan.Fig8Configs(r.workloads), coaxial.ReportFig8)
	case "9":
		show = printRows(r.plan.MainResults(r.workloads), coaxial.ReportFig9)
	case "10":
		show = printRows(r.plan.Fig10LatencySensitivity(r.workloads), coaxial.ReportFig10)
	case "11":
		show = printRows(r.plan.Fig11Utilization(r.workloads), coaxial.ReportFig11)
	default:
		fmt.Fprintf(os.Stderr, "coaxial-report: unknown figure %q\n", f)
		os.Exit(2)
	}
	return func() {
		start := time.Now()
		show()
		fmt.Printf("  [fig %s regenerated in %.1fs]\n\n", f, time.Since(start).Seconds())
	}
}

// printRows returns a printer rendering a driver's rows once the plan ran.
func printRows[T any](rows func() (T, error), render func(io.Writer, T)) func() {
	return func() {
		v, err := rows()
		check(err)
		render(os.Stdout, v)
	}
}

// table declares table t's points and returns the function printing it.
func (r *reporter) table(t string) func() {
	var show func()
	switch t {
	case "1":
		show = func() { coaxial.ReportTableI(os.Stdout) }
	case "2":
		show = func() { coaxial.ReportTableII(os.Stdout) }
	case "3":
		show = func() { coaxial.ReportTableIII(os.Stdout) }
	case "4":
		show = printRows(r.plan.MainResults(r.workloads), func(w io.Writer, rows []coaxial.PairRow) {
			coaxial.ReportTableIV(w, rows, r.workloads)
		})
	case "5":
		show = printRows(r.plan.MainResults(r.workloads), func(w io.Writer, rows []coaxial.PairRow) {
			base, coax := coaxial.TableVPower(rows)
			coaxial.ReportTableV(w, base, coax)
		})
	default:
		fmt.Fprintf(os.Stderr, "coaxial-report: unknown table %q\n", t)
		os.Exit(2)
	}
	return func() {
		show()
		fmt.Println()
	}
}

// ablations declares the extension suite and returns its printer.
func (r *reporter) ablations() func() {
	w, err := coaxial.WorkloadByName("stream-triad")
	check(err)
	sum := r.plan.Ablations(w)
	return func() {
		start := time.Now()
		printRows(sum, coaxial.ReportAblations)()
		fmt.Printf("  [ablations completed in %.1fs]\n\n", time.Since(start).Seconds())
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "coaxial-report: %v\n", err)
		os.Exit(1)
	}
}
