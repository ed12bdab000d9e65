package taskir

import (
	"fmt"
	"strings"
)

// Format renders a program as indented pseudo-source, used by the
// profiling tool to show the programmer what survived in a prediction
// slice (the paper's Fig 8 contrast between instrumented code and
// slice).
func Format(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "task %s(%s) {\n", p.Name, strings.Join(p.Params, ", "))
	for _, g := range sortedKeys(p.Globals) {
		fmt.Fprintf(&b, "  global %s = %d\n", g, p.Globals[g])
	}
	formatBlock(&b, p.Body, 1)
	b.WriteString("}\n")
	return b.String()
}

func formatBlock(b *strings.Builder, stmts []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range stmts {
		switch st := s.(type) {
		case *If:
			fmt.Fprintf(b, "%sif#%d %s {\n", ind, st.ID, st.Cond)
			formatBlock(b, st.Then, depth+1)
			if len(st.Else) > 0 {
				fmt.Fprintf(b, "%s} else {\n", ind)
				formatBlock(b, st.Else, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", ind)
		case *While:
			fmt.Fprintf(b, "%swhile#%d %s {\n", ind, st.ID, st.Cond)
			formatBlock(b, st.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case *Loop:
			idx := ""
			if st.IndexVar != "" {
				idx = st.IndexVar + " in "
			}
			fmt.Fprintf(b, "%sloop#%d %s0..%s {\n", ind, st.ID, idx, st.Count)
			formatBlock(b, st.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case *Call:
			fmt.Fprintf(b, "%scall#%d (*%s) {\n", ind, st.ID, st.Target)
			for _, a := range sortedKeys(st.Funcs) {
				if len(st.Funcs[a]) == 0 {
					continue
				}
				fmt.Fprintf(b, "%s  addr %d:\n", ind, a)
				formatBlock(b, st.Funcs[a], depth+2)
			}
			fmt.Fprintf(b, "%s}\n", ind)
		default:
			fmt.Fprintf(b, "%s%s\n", ind, s)
		}
	}
}
