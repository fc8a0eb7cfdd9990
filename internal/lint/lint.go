// Package lint implements splitlint: a zero-dependency static-analysis
// suite (stdlib go/parser + go/types only) enforcing the invariants the
// compiler cannot see but the SPLIT reproduction's correctness rests on —
// virtual-time purity, millisecond units, deterministic randomness, error
// wrapping, and lock discipline on the concurrent serving path.
//
// A diagnostic can be suppressed with a directive on the offending line or
// the line above it:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// ReportFunc records one violation at pos.
type ReportFunc func(pos token.Pos, format string, args ...any)

// ModuleReportFunc records one violation at pos inside package p. Module
// analyzers must name the package so ignore directives resolve against the
// right files.
type ModuleReportFunc func(p *Package, pos token.Pos, format string, args ...any)

// Analyzer is one lint rule. Exactly one of Run and RunModule is set:
// per-package rules see one package at a time, module rules see every
// loaded package at once and can follow calls and references across
// package boundaries (hotalloc's transitive allocation propagation,
// lockorder's lock-acquisition graph, vocab's cross-layer drift checks).
type Analyzer struct {
	// Name is the rule name used in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description of the invariant the rule protects.
	Doc string
	// Run inspects one package and reports violations.
	Run func(p *Package, report ReportFunc)
	// RunModule inspects the whole module at once.
	RunModule func(pkgs []*Package, report ModuleReportFunc)
}

// All returns every analyzer in stable order.
func All() []*Analyzer {
	return []*Analyzer{Noclock, Norandglobal, Msunits, Errwrap, Lockdiscipline,
		Hotalloc, Lockorder, Vocab}
}

// ByName resolves a comma-separated rule list against All.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a := byName[strings.TrimSpace(n)]
		if a == nil {
			return nil, fmt.Errorf("lint: unknown rule %q", strings.TrimSpace(n))
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to every package, drops diagnostics suppressed
// by //lint:ignore directives, and returns the rest sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ignoresByPkg := make(map[*Package]ignoreSet, len(pkgs))
	for _, p := range pkgs {
		ignores, malformed := collectIgnores(p)
		ignoresByPkg[p] = ignores
		diags = append(diags, malformed...)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			report := func(pos token.Pos, format string, args ...any) {
				position := p.Fset.Position(pos)
				if ignores.suppresses(a.Name, position) {
					return
				}
				diags = append(diags, Diagnostic{
					Pos:  position,
					Rule: a.Name,
					Msg:  fmt.Sprintf(format, args...),
				})
			}
			a.Run(p, report)
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a := a
		report := func(p *Package, pos token.Pos, format string, args ...any) {
			position := p.Fset.Position(pos)
			if ignoresByPkg[p].suppresses(a.Name, position) {
				return
			}
			diags = append(diags, Diagnostic{
				Pos:  position,
				Rule: a.Name,
				Msg:  fmt.Sprintf(format, args...),
			})
		}
		a.RunModule(pkgs, report)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}

// ignoreDirective is the parsed form of one //lint:ignore comment.
type ignoreDirective struct {
	rules map[string]bool
}

// ignoreSet maps file -> line -> directive.
type ignoreSet map[string]map[int]ignoreDirective

// suppresses reports whether a diagnostic for rule at position is covered
// by a directive on the same line or the line directly above.
func (s ignoreSet) suppresses(rule string, pos token.Position) bool {
	lines := s[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if d, ok := lines[line]; ok && d.rules[rule] {
			return true
		}
	}
	return false
}

const ignorePrefix = "lint:ignore"

// collectIgnores parses every //lint:ignore directive in the package and
// reports malformed ones (missing rule or reason) as diagnostics.
func collectIgnores(p *Package) (ignoreSet, []Diagnostic) {
	set := ignoreSet{}
	var malformed []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				text, ok = strings.CutPrefix(strings.TrimSpace(text), ignorePrefix)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:  pos,
						Rule: "ignore",
						Msg:  "malformed directive: want //lint:ignore <rule> <reason>",
					})
					continue
				}
				d := ignoreDirective{rules: map[string]bool{}}
				for _, r := range strings.Split(fields[0], ",") {
					d.rules[r] = true
				}
				if set[pos.Filename] == nil {
					set[pos.Filename] = map[int]ignoreDirective{}
				}
				set[pos.Filename][pos.Line] = d
			}
		}
	}
	return set, malformed
}

// --- shared AST/type helpers ---

// usedPkg returns the package an identifier refers to when it names an
// import, or nil.
func usedPkg(info *types.Info, id *ast.Ident) *types.Package {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported()
	}
	return nil
}

// pkgSelector returns the selected name when sel is a qualified reference
// into the package with the given import path ("" when it is not).
func pkgSelector(info *types.Info, sel *ast.SelectorExpr, pkgPath string) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if p := usedPkg(info, id); p != nil && p.Path() == pkgPath {
		return sel.Sel.Name
	}
	return ""
}

// calleeFunc resolves the static callee of a call, or nil for dynamic
// calls, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// walkStack traverses root calling fn with each node and its ancestor
// stack (outermost first, excluding the node itself).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// isFloat64 reports whether t's underlying type is float64.
func isFloat64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

// funcKey names a function uniquely across the module as
// "pkgpath.[Recv.]Name". Module analyzers key cross-package maps by this
// string instead of *types.Func identity: packages with in-package test
// files are type-checked twice (see LoadModule), so the same function has
// two distinct objects — one per view — but a single key.
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if recv := recvTypeName(fn); recv != "" {
		return fn.Pkg().Path() + "." + recv + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// shortFuncKey is funcKey without the package path, for diagnostics.
func shortFuncKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if recv := recvTypeName(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	return fn.Name()
}

// recvTypeName returns the name of fn's receiver type ("" for plain
// functions), with any pointer indirection stripped.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// directiveArg scans a comment group for a //lint:<name> directive and
// returns the rest of its line. found distinguishes a bare directive from
// an absent one.
func directiveArg(cg *ast.CommentGroup, name string) (arg string, pos token.Pos, found bool) {
	if cg == nil {
		return "", token.NoPos, false
	}
	for _, c := range cg.List {
		text, ok := strings.CutPrefix(c.Text, "//")
		if !ok {
			continue
		}
		rest, ok := strings.CutPrefix(strings.TrimSpace(text), "lint:"+name)
		if !ok {
			continue
		}
		if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
			continue // a longer directive name sharing this one as a prefix
		}
		return strings.TrimSpace(rest), c.Pos(), true
	}
	return "", token.NoPos, false
}
