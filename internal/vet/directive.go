package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Directive names. Marks go on a function's doc comment and scope the
// function; allows go on (or immediately above) the offending line, or
// on the doc comment to cover the whole function.
const (
	MarkHotPath = "hotpath" // //dvfs:hotpath — zero heap allocations
	MarkNoBlock = "noblock" // //dvfs:noblock — never block

	AllowAlloc     = "allow-alloc"     // suppress hotpathalloc
	AllowBlock     = "allow-block"     // suppress noblock
	AllowLock      = "allow-lock"      // suppress lockdiscipline
	AllowWallclock = "allow-wallclock" // suppress clockdiscipline
)

var knownDirectives = map[string]bool{
	MarkHotPath: true, MarkNoBlock: true,
	AllowAlloc: true, AllowBlock: true, AllowLock: true, AllowWallclock: true,
}

// lineRange is an inclusive span of lines within one file.
type lineRange struct{ lo, hi int }

// Directives indexes every //dvfs: comment in the loaded packages.
type Directives struct {
	fset *token.FileSet
	// marks maps a function object to its mark set ("hotpath", ...).
	marks map[*types.Func]map[string]bool
	// allows maps file → allow kind → single-line positions.
	allows map[string]map[string]map[int]bool
	// rangeAllows maps file → allow kind → whole-function ranges
	// (an allow on the func doc comment covers the body).
	rangeAllows map[string]map[string][]lineRange
	// unknown records malformed or unrecognized dvfs: directives.
	unknown []Diagnostic
}

// CollectDirectives scans all comments and function docs in pkgs.
func CollectDirectives(fset *token.FileSet, pkgs []*Package) *Directives {
	d := &Directives{
		fset:        fset,
		marks:       map[*types.Func]map[string]bool{},
		allows:      map[string]map[string]map[int]bool{},
		rangeAllows: map[string]map[string][]lineRange{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			d.collectFile(pkg, f)
		}
	}
	return d
}

func (d *Directives) collectFile(pkg *Package, f *ast.File) {
	// Doc comments attached to func decls: marks scope the function,
	// allows cover its whole body.
	docLines := map[*ast.Comment]bool{}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		for _, c := range fd.Doc.List {
			name, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			docLines[c] = true
			if !knownDirectives[name] {
				d.reportUnknown(c, name)
				continue
			}
			switch name {
			case MarkHotPath, MarkNoBlock:
				if obj != nil {
					m := d.marks[obj]
					if m == nil {
						m = map[string]bool{}
						d.marks[obj] = m
					}
					m[name] = true
				}
			default: // allow-* on the doc: covers the whole function
				pos := d.fset.Position(fd.Pos())
				end := d.fset.Position(fd.End())
				d.addRangeAllow(pos.Filename, name, lineRange{pos.Line, end.Line})
			}
		}
	}
	// Every other comment: allows apply to their own line and the next.
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if docLines[c] {
				continue
			}
			name, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			if !knownDirectives[name] {
				d.reportUnknown(c, name)
				continue
			}
			switch name {
			case MarkHotPath, MarkNoBlock:
				d.unknown = append(d.unknown, Diagnostic{
					Analyzer: "directives",
					Code:     "misplaced-mark",
					Msg:      "//dvfs:" + name + " must appear in a function's doc comment",
					position: d.fset.Position(c.Pos()),
				})
			default:
				pos := d.fset.Position(c.Pos())
				d.addAllow(pos.Filename, name, pos.Line)
			}
		}
	}
}

func (d *Directives) reportUnknown(c *ast.Comment, name string) {
	d.unknown = append(d.unknown, Diagnostic{
		Analyzer: "directives",
		Code:     "unknown-directive",
		Msg:      "unknown directive //dvfs:" + name,
		position: d.fset.Position(c.Pos()),
	})
}

// parseDirective extracts the name from a "//dvfs:name [reason]"
// comment. Directive comments have no space after "//".
func parseDirective(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, "//dvfs:")
	if !ok {
		return "", false
	}
	name, _, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	return name, name != ""
}

func (d *Directives) addAllow(file, kind string, line int) {
	byKind := d.allows[file]
	if byKind == nil {
		byKind = map[string]map[int]bool{}
		d.allows[file] = byKind
	}
	lines := byKind[kind]
	if lines == nil {
		lines = map[int]bool{}
		byKind[kind] = lines
	}
	lines[line] = true
}

func (d *Directives) addRangeAllow(file, kind string, r lineRange) {
	byKind := d.rangeAllows[file]
	if byKind == nil {
		byKind = map[string][]lineRange{}
		d.rangeAllows[file] = byKind
	}
	byKind[kind] = append(byKind[kind], r)
}

// MarkedFuncs returns every function carrying the given mark.
func (d *Directives) MarkedFuncs(mark string) []*types.Func {
	var out []*types.Func
	for fn, marks := range d.marks {
		if marks[mark] {
			out = append(out, fn)
		}
	}
	return out
}

// Allowed reports whether an allow directive of the given kind covers
// pos: on the same line, the line above, or a whole-function range.
func (d *Directives) Allowed(pos token.Pos, kind string) bool {
	p := d.fset.Position(pos)
	if byKind := d.allows[p.Filename]; byKind != nil {
		if lines := byKind[kind]; lines[p.Line] || lines[p.Line-1] {
			return true
		}
	}
	for _, r := range d.rangeAllows[p.Filename][kind] {
		if r.lo <= p.Line && p.Line <= r.hi {
			return true
		}
	}
	return false
}

// Unknown returns diagnostics for unrecognized or misplaced directives.
func (d *Directives) Unknown() []Diagnostic { return d.unknown }
