package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Report aggregates a decision log the way the paper's Figs 2/3/19
// analyses do: deadline outcomes, the residual distribution between
// predicted and actual execution time, the overhead attribution that
// §3.4 subtracts from every budget, and per-level occupancy.
// cmd/dvfstrace renders it; tests consume it as a value.
type Report struct {
	// Events is the total event count; Completed counts events whose
	// job outcome was recorded (Done); WithPrediction counts completed
	// events carrying a model prediction.
	Events         int `json:"events"`
	Completed      int `json:"completed"`
	WithPrediction int `json:"with_prediction"`
	// SeqGaps counts sequence numbers missing from the log: the span
	// from the lowest to the highest Seq seen, minus the distinct Seqs
	// present. Non-zero means events were lost (ring overwrites, a
	// truncated file) — or deliberately excluded by a filter; either
	// way, aggregate numbers below describe an incomplete stream.
	SeqGaps int `json:"seq_gaps,omitempty"`
	// Workloads lists the distinct workloads seen, sorted.
	Workloads []string `json:"workloads"`
	// Misses and MissRate summarize deadline outcomes over completed
	// events.
	Misses   int     `json:"misses"`
	MissRate float64 `json:"miss_rate"`
	// Residual summarizes actual − predicted over completed predicted
	// events.
	Residual ResidualStats `json:"residual"`
	// Overhead is the §3.4 margin attribution averaged per decision.
	Overhead OverheadStats `json:"overhead"`
	// Levels is per-level occupancy, ascending by level index.
	Levels []LevelOccupancy `json:"levels"`
	// SpanEvents counts events carrying a span ledger; Phases is the
	// per-phase latency distribution over those ledgers (empty when the
	// log has none — old logs, record-only adapters).
	SpanEvents int         `json:"span_events,omitempty"`
	Phases     []PhaseStat `json:"phases,omitempty"`
}

// ResidualStats is the residual distribution (seconds).
type ResidualStats struct {
	N         int     `json:"n"`
	UnderRate float64 `json:"under_rate"`
	MeanSec   float64 `json:"mean_sec"`
	P50Sec    float64 `json:"p50_sec"`
	P90Sec    float64 `json:"p90_sec"`
	P95Sec    float64 `json:"p95_sec"`
	P99Sec    float64 `json:"p99_sec"`
	MinSec    float64 `json:"min_sec"`
	MaxSec    float64 `json:"max_sec"`
}

// OverheadStats attributes the per-decision budget consumption.
type OverheadStats struct {
	MeanPredictorSec float64 `json:"mean_predictor_sec"`
	MeanSwitchSec    float64 `json:"mean_switch_sec"`
	MeanBudgetSec    float64 `json:"mean_budget_sec"`
	MeanEffBudgetSec float64 `json:"mean_eff_budget_sec"`
	// PredictorFrac and SwitchFrac are the overheads as fractions of
	// the mean budget (zero when no budgets were recorded).
	PredictorFrac float64 `json:"predictor_frac"`
	SwitchFrac    float64 `json:"switch_frac"`
}

// LevelOccupancy is one DVFS level's share of decisions.
type LevelOccupancy struct {
	Level int     `json:"level"`
	Count int     `json:"count"`
	Frac  float64 `json:"frac"`
}

// Analyze aggregates a decision log.
func Analyze(events []DecisionEvent) Report {
	r := Report{Events: len(events)}
	seen := map[string]bool{}
	levels := map[int]int{}
	seqs := map[uint64]bool{}
	var minSeq, maxSeq uint64
	var residuals []float64
	under := 0
	var predSum, swSum, budSum, effSum float64
	budgets := 0
	for i := range events {
		e := &events[i]
		seen[e.Workload] = true
		levels[e.Level]++
		if len(seqs) == 0 || e.Seq < minSeq {
			minSeq = e.Seq
		}
		if len(seqs) == 0 || e.Seq > maxSeq {
			maxSeq = e.Seq
		}
		seqs[e.Seq] = true
		predSum += e.PredictorSec
		swSum += e.SwitchSec
		if e.BudgetSec > 0 {
			budSum += e.BudgetSec
			effSum += e.EffBudgetSec
			budgets++
		}
		if !e.Done {
			continue
		}
		r.Completed++
		if e.Missed {
			r.Misses++
		}
		if e.Predicted {
			r.WithPrediction++
			residuals = append(residuals, e.ResidualSec)
			if e.ResidualSec > 0 {
				under++
			}
		}
	}
	for w := range seen {
		r.Workloads = append(r.Workloads, w)
	}
	sort.Strings(r.Workloads)
	if n := len(seqs); n > 0 {
		if span := int(maxSeq-minSeq) + 1; span > n {
			r.SeqGaps = span - n
		}
	}
	if r.Completed > 0 {
		r.MissRate = float64(r.Misses) / float64(r.Completed)
	}
	if len(residuals) > 0 {
		sort.Float64s(residuals)
		sum := 0.0
		for _, v := range residuals {
			sum += v
		}
		r.Residual = ResidualStats{
			N:         len(residuals),
			UnderRate: float64(under) / float64(len(residuals)),
			MeanSec:   sum / float64(len(residuals)),
			P50Sec:    stats.QuantileSorted(residuals, 0.50),
			P90Sec:    stats.QuantileSorted(residuals, 0.90),
			P95Sec:    stats.QuantileSorted(residuals, 0.95),
			P99Sec:    stats.QuantileSorted(residuals, 0.99),
			MinSec:    residuals[0],
			MaxSec:    residuals[len(residuals)-1],
		}
	}
	if len(events) > 0 {
		n := float64(len(events))
		r.Overhead.MeanPredictorSec = predSum / n
		r.Overhead.MeanSwitchSec = swSum / n
	}
	if budgets > 0 {
		r.Overhead.MeanBudgetSec = budSum / float64(budgets)
		r.Overhead.MeanEffBudgetSec = effSum / float64(budgets)
		r.Overhead.PredictorFrac = r.Overhead.MeanPredictorSec / r.Overhead.MeanBudgetSec
		r.Overhead.SwitchFrac = r.Overhead.MeanSwitchSec / r.Overhead.MeanBudgetSec
	}
	for i := range events {
		if len(events[i].Spans) > 0 {
			r.SpanEvents++
		}
	}
	r.Phases = AnalyzePhases(events)
	idxs := make([]int, 0, len(levels))
	for l := range levels {
		idxs = append(idxs, l)
	}
	sort.Ints(idxs)
	for _, l := range idxs {
		r.Levels = append(r.Levels, LevelOccupancy{
			Level: l, Count: levels[l], Frac: float64(levels[l]) / float64(len(events)),
		})
	}
	return r
}

// WriteText renders the report for a terminal.
func (r Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "events      %d (%d completed, %d with predictions)\n",
		r.Events, r.Completed, r.WithPrediction)
	fmt.Fprintf(w, "workloads   %s\n", strings.Join(r.Workloads, ", "))
	if r.SeqGaps > 0 {
		fmt.Fprintf(w, "dropped     %d sequence gaps — events lost (ring overwrite, truncation) or filtered out; aggregates below are over an incomplete stream\n", r.SeqGaps)
	}
	if r.Completed > 0 {
		fmt.Fprintf(w, "misses      %d (%.2f%% of completed jobs)\n", r.Misses, 100*r.MissRate)
	}
	if r.Residual.N > 0 {
		fmt.Fprintf(w, "residual    mean %+.3f ms, under-predictions %.2f%%\n",
			r.Residual.MeanSec*1e3, 100*r.Residual.UnderRate)
		fmt.Fprintf(w, "            p50 %+.3f  p90 %+.3f  p95 %+.3f  p99 %+.3f  max %+.3f ms\n",
			r.Residual.P50Sec*1e3, r.Residual.P90Sec*1e3, r.Residual.P95Sec*1e3,
			r.Residual.P99Sec*1e3, r.Residual.MaxSec*1e3)
	} else {
		fmt.Fprintf(w, "residual    no completed predictions in the log\n")
	}
	fmt.Fprintf(w, "overheads   predictor %.3f ms/job, dvfs switch %.3f ms/job\n",
		r.Overhead.MeanPredictorSec*1e3, r.Overhead.MeanSwitchSec*1e3)
	if r.Overhead.MeanBudgetSec > 0 {
		fmt.Fprintf(w, "margin      budget %.3f ms → effective %.3f ms (predictor %.2f%%, switch %.2f%% of budget)\n",
			r.Overhead.MeanBudgetSec*1e3, r.Overhead.MeanEffBudgetSec*1e3,
			100*r.Overhead.PredictorFrac, 100*r.Overhead.SwitchFrac)
	}
	if len(r.Phases) > 0 {
		fmt.Fprintf(w, "phases      measured spans on %d events\n", r.SpanEvents)
		for _, ph := range r.Phases {
			fmt.Fprintf(w, "  %-14s %6d  mean %-10s p50 %-10s p95 %-10s max %s\n",
				ph.Name, ph.N, FormatDur(ph.MeanSec), FormatDur(ph.P50Sec),
				FormatDur(ph.P95Sec), FormatDur(ph.MaxSec))
		}
	}
	fmt.Fprintf(w, "levels      occupancy over %d decisions\n", r.Events)
	for _, l := range r.Levels {
		bar := strings.Repeat("#", barWidth(l.Frac, 40))
		fmt.Fprintf(w, "  level %2d  %6d  %6.2f%%  %s\n", l.Level, l.Count, 100*l.Frac, bar)
	}
}

func barWidth(frac float64, max int) int {
	n := int(math.Round(frac * float64(max)))
	if n < 0 {
		return 0
	}
	if n > max {
		return max
	}
	return n
}
