// Package instrument implements the paper's feature instrumentation
// pass (§3.2, Fig 7). Given a task program it produces an instrumented
// copy that counts control-flow features during execution:
//
//   - for each conditional branch, the number of times it is taken
//     (a FeatAdd of 1 at the head of the then-block);
//   - for each counted loop, its trip count (a FeatAdd of the count
//     expression hoisted in front of the loop, exactly like the
//     paper's `feature[1] += n; for (i=0; i<n; i++)` example);
//   - for each while-loop (no closed-form count), an in-body counter,
//     like the paper's `while (n = n->next) { feature[2]++; ... }`;
//   - for each function-pointer call site, the callee address
//     (a FeatCall in front of the call).
//
// The original program is never mutated; statements are rebuilt so the
// slicer can safely transform the instrumented copy.
package instrument

import (
	"fmt"
	"sort"

	"repro/internal/taskir"
)

// SiteKind classifies a feature site.
type SiteKind int

// Feature site kinds.
const (
	// KindBranch counts how often a conditional's then-branch runs.
	KindBranch SiteKind = iota
	// KindLoop counts a loop's trip count.
	KindLoop
	// KindCall records the target address of an indirect call.
	KindCall
)

func (k SiteKind) String() string {
	switch k {
	case KindBranch:
		return "branch"
	case KindLoop:
		return "loop"
	case KindCall:
		return "call"
	}
	return fmt.Sprintf("SiteKind(%d)", int(k))
}

// Site describes one instrumented feature counter.
type Site struct {
	// FID is the dense feature index used by FeatAdd/FeatCall.
	FID int
	// Kind says what the counter measures.
	Kind SiteKind
	// CtrlID is the ID of the If/Loop/Call statement in the source
	// program.
	CtrlID int
}

// Program couples an instrumented task with its feature site table.
type Program struct {
	// Prog is the instrumented program; running it with a feature
	// recorder produces the control-flow features of the job.
	Prog *taskir.Program
	// Sites lists feature sites in FID order.
	Sites []Site
}

// Site returns the site with the given FID, or false.
func (ip *Program) Site(fid int) (Site, bool) {
	if fid < 0 || fid >= len(ip.Sites) {
		return Site{}, false
	}
	return ip.Sites[fid], true
}

// Instrument returns an instrumented copy of p with one feature site
// per conditional, loop, and indirect call site, in pre-order.
func Instrument(p *taskir.Program) *Program {
	ins := &instrumenter{}
	q := p.Clone()
	q.Body = ins.block(p.Body)
	return &Program{Prog: q, Sites: ins.sites}
}

type instrumenter struct {
	sites []Site
}

func (ins *instrumenter) newSite(kind SiteKind, ctrlID int) int {
	fid := len(ins.sites)
	ins.sites = append(ins.sites, Site{FID: fid, Kind: kind, CtrlID: ctrlID})
	return fid
}

func (ins *instrumenter) block(stmts []taskir.Stmt) []taskir.Stmt {
	out := make([]taskir.Stmt, 0, len(stmts))
	for _, s := range stmts {
		switch st := s.(type) {
		case *taskir.If:
			fid := ins.newSite(KindBranch, st.ID)
			then := append([]taskir.Stmt{&taskir.FeatAdd{FID: fid, Amount: taskir.Const(1)}},
				ins.block(st.Then)...)
			out = append(out, &taskir.If{
				ID:   st.ID,
				Cond: st.Cond,
				Then: then,
				Else: ins.block(st.Else),
			})
		case *taskir.While:
			// The while pattern of Fig 7: no closed-form trip count, so
			// the counter increments inside the body.
			fid := ins.newSite(KindLoop, st.ID)
			body := append([]taskir.Stmt{&taskir.FeatAdd{FID: fid, Amount: taskir.Const(1)}},
				ins.block(st.Body)...)
			out = append(out, &taskir.While{
				ID:      st.ID,
				Cond:    st.Cond,
				Body:    body,
				MaxIter: st.MaxIter,
			})
		case *taskir.Loop:
			fid := ins.newSite(KindLoop, st.ID)
			// feature[fid] += max(count, 0): a negative count runs zero
			// iterations, so it must contribute zero to the feature.
			out = append(out,
				&taskir.FeatAdd{FID: fid, Amount: taskir.Max(st.Count, taskir.Const(0))},
				&taskir.Loop{
					ID:       st.ID,
					Count:    st.Count,
					IndexVar: st.IndexVar,
					Body:     ins.block(st.Body),
				})
		case *taskir.Call:
			fid := ins.newSite(KindCall, st.ID)
			funcs := make(map[int64][]taskir.Stmt, len(st.Funcs))
			addrs := make([]int64, 0, len(st.Funcs))
			for a := range st.Funcs {
				addrs = append(addrs, a)
			}
			sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
			for _, a := range addrs {
				funcs[a] = ins.block(st.Funcs[a])
			}
			out = append(out,
				&taskir.FeatCall{FID: fid, Target: st.Target},
				&taskir.Call{ID: st.ID, Target: st.Target, Funcs: funcs})
		default:
			// Assign, Compute, and pre-existing feature statements pass
			// through untouched.
			out = append(out, s)
		}
	}
	return out
}
