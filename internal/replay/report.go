package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// WriteText renders the replay deterministically for a terminal: one
// block per (workload, governor) group with the traced energy
// attribution, the counterfactual table normalized the way the
// paper's Fig 15 is, and the what-if sweeps.
func (r *Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "replay      platform %s, %d events (%d skipped)\n",
		r.Platform, r.Events, r.Skipped)
	if r.SeqGaps > 0 {
		fmt.Fprintf(w, "dropped     %d sequence gaps — events lost (ring overwrite, truncation) or filtered out; analysis covers an incomplete stream\n", r.SeqGaps)
	}
	for i := range r.Groups {
		g := &r.Groups[i]
		fmt.Fprintf(w, "\n%s / %s   %d jobs (%d predicted), period %.1f ms, budget %.1f ms, rho %.3f\n",
			g.Workload, g.Governor, g.Jobs, g.Predicted,
			g.PeriodSec*1e3, g.BudgetSec*1e3, g.Rho)
		for _, a := range g.Approx {
			fmt.Fprintf(w, "  approx    %s\n", a)
		}
		b := g.Traced.Breakdown
		fmt.Fprintf(w, "  traced    %.3f J = exec %.3f + predictor %.3f + switch %.3f + idle %.3f;  %d misses (%.2f%%)\n",
			g.Traced.EnergyJ, b.ExecJ, b.PredictorJ, b.SwitchJ, b.IdleJ,
			g.Traced.Misses, 100*g.Traced.MissRate)
		fmt.Fprintf(w, "  %-14s %10s %8s %8s %9s %10s\n",
			"policy", "energy J", "norm %", "misses", "miss %", "Δenergy %")
		for _, p := range g.Policies {
			fmt.Fprintf(w, "  %-14s %10.3f %8.1f %8d %9.2f %+10.1f\n",
				p.Name, p.EnergyJ, p.NormEnergyPct, p.Misses, 100*p.MissRate, p.DeltaEnergyPct)
		}
		writeSweep(w, "margin", g.MarginSweep, "%.2f")
		writeSweep(w, "alpha", g.AlphaSweep, "%.0f")
		if occ := occupancyLine(g); occ != "" {
			fmt.Fprintf(w, "  occupancy traced %s\n", occ)
		}
	}
}

func writeSweep(w io.Writer, name string, pts []SweepPoint, f string) {
	if len(pts) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s sweep:", name)
	for _, p := range pts {
		fmt.Fprintf(w, "  "+f+"→%.1f%%/%d miss", p.Param, p.NormEnergyPct, p.Misses)
	}
	fmt.Fprintln(w)
}

func occupancyLine(g *GroupResult) string {
	if len(g.Traced.Levels) == 0 {
		return ""
	}
	parts := make([]string, 0, len(g.Traced.Levels))
	for _, l := range g.Traced.Levels {
		parts = append(parts, fmt.Sprintf("L%d:%.0f%%", l.Level, 100*l.Frac))
	}
	return strings.Join(parts, " ")
}

// Bench is the machine-readable BENCH_replay.json shape: the full
// result plus a schema version so future fields stay additive.
type Bench struct {
	Schema int     `json:"schema"`
	Replay *Result `json:"replay"`
}

// WriteJSON writes the bench document with stable indentation.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Bench{Schema: 1, Replay: r})
}

// ReadBench parses a bench document (current or bare-Result legacy).
func ReadBench(rd io.Reader) (*Result, error) {
	var b Bench
	if err := json.NewDecoder(rd).Decode(&b); err != nil {
		return nil, fmt.Errorf("replay: parsing baseline: %w", err)
	}
	if b.Replay == nil {
		return nil, fmt.Errorf("replay: baseline has no replay payload")
	}
	return b.Replay, nil
}

// CompareOptions bounds acceptable drift from a committed baseline.
type CompareOptions struct {
	// MaxEnergyRegressPct fails the comparison when a group/policy
	// energy grows by more than this percentage; zero → 5.
	MaxEnergyRegressPct float64
	// MaxMissRegressPts fails when a miss rate grows by more than
	// this many percentage points; zero → 1.
	MaxMissRegressPts float64
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.MaxEnergyRegressPct <= 0 {
		o.MaxEnergyRegressPct = 5
	}
	if o.MaxMissRegressPts <= 0 {
		o.MaxMissRegressPts = 1
	}
	return o
}

// Compare checks cur against a committed baseline and returns one
// line per regression (empty = pass). Groups or policies present only
// on one side are reported as informational drift, not regressions —
// adding a workload to the bench run must not fail CI.
func Compare(cur, base *Result, opts CompareOptions) (regressions, notes []string) {
	opts = opts.withDefaults()
	key := func(g *GroupResult) string { return g.Workload + " / " + g.Governor }
	baseGroups := map[string]*GroupResult{}
	for i := range base.Groups {
		baseGroups[key(&base.Groups[i])] = &base.Groups[i]
	}
	seen := map[string]bool{}
	for i := range cur.Groups {
		g := &cur.Groups[i]
		k := key(g)
		seen[k] = true
		bg := baseGroups[k]
		if bg == nil {
			notes = append(notes, fmt.Sprintf("%s: new group (not in baseline)", k))
			continue
		}
		regressions = append(regressions, compareOutcome(k+" traced", &g.Traced, &bg.Traced, opts)...)
		basePol := map[string]*PolicyResult{}
		for j := range bg.Policies {
			basePol[bg.Policies[j].Name] = &bg.Policies[j]
		}
		for j := range g.Policies {
			p := &g.Policies[j]
			bp := basePol[p.Name]
			if bp == nil {
				notes = append(notes, fmt.Sprintf("%s %s: new policy (not in baseline)", k, p.Name))
				continue
			}
			regressions = append(regressions, compareOutcome(k+" "+p.Name, &p.Outcome, &bp.Outcome, opts)...)
		}
	}
	var missing []string
	for k := range baseGroups {
		if !seen[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	for _, k := range missing {
		notes = append(notes, fmt.Sprintf("%s: present in baseline but not in this run", k))
	}
	return regressions, notes
}

func compareOutcome(label string, cur, base *Outcome, opts CompareOptions) []string {
	var out []string
	if base.EnergyJ > 0 {
		pct := 100 * (cur.EnergyJ - base.EnergyJ) / base.EnergyJ
		if pct > opts.MaxEnergyRegressPct {
			out = append(out, fmt.Sprintf("%s: energy %.3f J vs baseline %.3f J (+%.2f%% > %.2f%% allowed)",
				label, cur.EnergyJ, base.EnergyJ, pct, opts.MaxEnergyRegressPct))
		}
	}
	if d := 100 * (cur.MissRate - base.MissRate); d > opts.MaxMissRegressPts {
		out = append(out, fmt.Sprintf("%s: miss rate %.2f%% vs baseline %.2f%% (+%.2f pts > %.2f allowed)",
			label, 100*cur.MissRate, 100*base.MissRate, d, opts.MaxMissRegressPts))
	}
	return out
}

// CheckOrdering asserts the physical sanity every healthy prediction
// trace must satisfy: oracle energy ≤ traced/prediction energy ≤
// performance energy, per group (tolerance tolPct% absorbs switch-
// latency jitter between the traced run and the replayed
// counterfactuals). It returns one line per violation.
func (r *Result) CheckOrdering(tolPct float64) []string {
	tol := 1 + tolPct/100
	var out []string
	for i := range r.Groups {
		g := &r.Groups[i]
		oracle := g.Policy("oracle")
		perf := g.Policy("performance")
		if oracle == nil || perf == nil {
			continue
		}
		if oracle.EnergyJ > g.Traced.EnergyJ*tol {
			out = append(out, fmt.Sprintf("%s/%s: oracle %.3f J exceeds traced %.3f J",
				g.Workload, g.Governor, oracle.EnergyJ, g.Traced.EnergyJ))
		}
		if g.Traced.EnergyJ > perf.EnergyJ*tol {
			out = append(out, fmt.Sprintf("%s/%s: traced %.3f J exceeds performance %.3f J",
				g.Workload, g.Governor, g.Traced.EnergyJ, perf.EnergyJ))
		}
		if p := g.Policy("prediction"); p != nil && !math.IsNaN(p.EnergyJ) {
			if oracle.EnergyJ > p.EnergyJ*tol {
				out = append(out, fmt.Sprintf("%s/%s: oracle %.3f J exceeds replayed prediction %.3f J",
					g.Workload, g.Governor, oracle.EnergyJ, p.EnergyJ))
			}
			if p.EnergyJ > perf.EnergyJ*tol {
				out = append(out, fmt.Sprintf("%s/%s: replayed prediction %.3f J exceeds performance %.3f J",
					g.Workload, g.Governor, p.EnergyJ, perf.EnergyJ))
			}
		}
	}
	return out
}
