// Command dvfsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dvfsbench [-seed N] [-exp <list>|all]
//
// Experiments: table2, fig2, fig3, fig9, fig11, fig15, fig16, fig17,
// fig18, fig19, fig20, fig21 (the paper's evaluation), xplat (§4.2),
// static (§2.2), a15 (§5.1), and the extension studies ablations,
// placement, batch, hetero, hints, overheadcap, multitask, quadratic,
// baselines. Each prints the text equivalent of the corresponding
// table or figure; -exp all (the default) runs everything in paper
// order. Results are deterministic in the seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/workload"
)

// order lists the experiments in paper order; -exp all runs them all.
var order = []string{"table2", "fig2", "fig3", "fig9", "fig11", "fig15",
	"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "xplat", "ablations", "placement", "batch", "hetero", "hints", "overheadcap", "multitask", "quadratic", "baselines", "static", "a15"}

func main() {
	seed := flag.Int64("seed", 1, "random seed (results are deterministic per seed)")
	exp := flag.String("exp", "all", "experiment to run (comma separated), or 'all'")
	bench := flag.String("workload", "", "restrict fig16 to one benchmark (default: all)")
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	if _, err := logFlags.Logger(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	var exps []string
	for _, e := range strings.Split(*exp, ",") {
		exps = append(exps, strings.TrimSpace(e))
	}
	for _, e := range exps {
		if e != "all" && !slices.Contains(order, e) {
			fmt.Fprintf(os.Stderr, "dvfsbench: unknown experiment %q (have: all, %s)\n",
				e, strings.Join(order, ", "))
			os.Exit(2)
		}
	}
	if err := run(os.Stdout, *seed, exps, *bench); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsbench:", err)
		os.Exit(1)
	}
}

// run prints the named experiments to w, in paper order, from one
// suite seeded with seed; "all" names every experiment. bench
// restricts fig16 to one benchmark when it is not empty.
func run(w io.Writer, seed int64, exps []string, bench string) error {
	s := experiments.NewSuite(seed)
	all := slices.Contains(exps, "all")
	for _, e := range order {
		if !all && !slices.Contains(exps, e) {
			continue
		}
		if err := runExp(w, s, e, bench); err != nil {
			return fmt.Errorf("%s: %w", e, err)
		}
	}
	return nil
}

func runExp(w io.Writer, s *experiments.Suite, name, bench string) error {
	switch name {
	case "table2":
		rows, err := s.RunTable2()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Table2(rows))
	case "fig2":
		series, err := s.RunFig2(250)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Series("Fig 2: ldecode per-frame execution time [ms] at max frequency", series.TimeMS, 100, 12))
	case "fig3":
		series, err := s.RunFig3(250)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Fig3(series, 12))
	case "fig9":
		pts, err := s.RunFig9()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Fig9(pts))
	case "fig11":
		fmt.Fprintln(w, render.Fig11(s.RunFig11()))
	case "fig15":
		rows, err := s.RunFig15()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Fig15(rows))
	case "fig16":
		ws := workload.All()
		if bench != "" {
			wl, err := workload.ByName(bench)
			if err != nil {
				return err
			}
			ws = []*workload.Workload{wl}
		}
		for _, wl := range ws {
			sw, err := s.RunFig16(wl)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, render.Fig16(sw))
		}
	case "fig17":
		rows, err := s.RunFig17()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Fig17(rows))
	case "fig18":
		rows, err := s.RunFig18()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Fig18(rows))
	case "fig19":
		rows, err := s.RunFig19()
		if err != nil {
			return err
		}
		sphinx, err := s.RunFig19Pocketsphinx()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Fig19(rows, sphinx))
	case "fig20":
		pts, err := s.RunFig20()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Fig20(pts))
	case "fig21":
		rows, err := s.RunFig21()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Fig21(rows))
	case "xplat":
		rows, err := s.RunXPlat()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.XPlat(rows))
	case "ablations":
		mpts, err := s.RunAblationMargin()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.AblationMargin(mpts))
		spts, err := s.RunAblationSwitchTable()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.AblationSwitchTable(spts))
		srows, err := s.RunAblationSlice()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.AblationSlice(srows))
	case "placement":
		rows, err := s.RunPlacement()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Placement(rows))
	case "batch":
		pts, err := s.RunBatch()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Batch(pts))
	case "hetero":
		pts, err := s.RunHetero()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Hetero(pts))
	case "hints":
		rows, err := s.RunHints()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Hints(rows))
	case "overheadcap":
		pts, err := s.RunOverheadCap()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.OverheadCap(pts))
	case "multitask":
		rows, err := s.RunMultiTask()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.MultiTask(rows))
	case "quadratic":
		rows, err := s.RunQuadratic()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Quadratic(rows))
	case "baselines":
		for _, wl := range []string{"ldecode", "sha"} {
			rows, err := s.RunBaselines(wl)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, render.Baselines(wl, rows))
		}
	case "static":
		rows, err := s.RunStatic()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Static(rows))
	case "a15":
		rows, err := s.RunA15Trends()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.A15(rows))
	}
	return nil
}
