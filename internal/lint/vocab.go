package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Vocab detects cross-layer vocabulary drift. The sim (internal/policy) and
// the serving path (internal/serve) must keep making identical decisions
// and describing them with identical words; runtime parity tests catch the
// decisions, this rule pins the words:
//
//   - trace event kinds are named constants: a string literal typed as
//     trace.EventKind outside internal/trace is a misspelling waiting to
//     diverge from the canonical kind;
//   - drop reasons shared by both layers live in internal/trace as
//     Reason* constants. Redeclaring one of their values as an independent
//     string constant (or using the bare literal) in policy or serve is
//     drift; each Reason* constant must be referenced from *both* layers,
//     so a reason added for one side is flagged until the other side
//     speaks it too;
//   - metric family names ("split_*") passed to obs.Registry
//     Counter/Gauge/Histogram outside internal/obs must reference the
//     obs.Metric* constants, so dashboards and tests cannot disagree with
//     the server about a family's spelling.
var Vocab = &Analyzer{
	Name:      "vocab",
	Doc:       "sim/serve vocabulary drift: event kinds, drop reasons and metric families",
	RunModule: runVocab,
}

const (
	relTrace  = "internal/trace"
	relObs    = "internal/obs"
	relPolicy = "internal/policy"
	relServe  = "internal/serve"
)

func runVocab(pkgs []*Package, report ModuleReportFunc) {
	tracePkg := pkgByRel(pkgs, relTrace)
	obsPkg := pkgByRel(pkgs, relObs)
	checkEventKindLiterals(pkgs, tracePkg, report)
	checkReasonConstants(pkgs, tracePkg, report)
	checkMetricFamilies(pkgs, obsPkg, report)
}

// pkgByRel returns the (non-external-test) package at the module-relative
// directory, or nil.
func pkgByRel(pkgs []*Package, rel string) *Package {
	for _, p := range pkgs {
		if p.Rel == rel && !isTestPackage(p) {
			return p
		}
	}
	return nil
}

// checkEventKindLiterals flags string literals typed as trace.EventKind
// outside the trace package (non-test files).
func checkEventKindLiterals(pkgs []*Package, tracePkg *Package, report ModuleReportFunc) {
	if tracePkg == nil {
		return
	}
	for _, p := range pkgs {
		if p.Rel == relTrace || isTestPackage(p) {
			continue
		}
		for _, f := range p.Files {
			if isTestFile(p, f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				tv, ok := p.Info.Types[lit]
				if !ok {
					return true
				}
				named, ok := tv.Type.(*types.Named)
				if !ok || named.Obj().Name() != "EventKind" ||
					named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != tracePkg.Path {
					return true
				}
				report(p, lit.Pos(),
					"trace event kind %s must be a named trace constant, not a string literal (sim/serve vocabulary drift)",
					lit.Value)
				return true
			})
		}
	}
}

// reasonConsts returns the trace package's exported Reason* string
// constants: value -> name.
func reasonConsts(tracePkg *Package) map[string]string {
	out := map[string]string{}
	scope := tracePkg.Types.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "Reason") {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.String {
			continue
		}
		out[constant.StringVal(c.Val())] = name
	}
	return out
}

// checkReasonConstants enforces the shared drop-reason vocabulary: no
// redeclaration of a trace.Reason* value in policy/serve, no bare reason
// literals there, and every Reason* constant referenced from both layers.
func checkReasonConstants(pkgs []*Package, tracePkg *Package, report ModuleReportFunc) {
	if tracePkg == nil {
		return
	}
	reasons := reasonConsts(tracePkg)
	if len(reasons) == 0 {
		return
	}
	policyPkg := pkgByRel(pkgs, relPolicy)
	servePkg := pkgByRel(pkgs, relServe)
	usedBy := map[string]map[string]bool{} // reason name -> rel -> referenced
	for _, p := range []*Package{policyPkg, servePkg} {
		if p == nil {
			continue
		}
		for _, f := range p.Files {
			if isTestFile(p, f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					c, ok := p.Info.Uses[n].(*types.Const)
					if ok && c.Pkg() != nil && c.Pkg().Path() == tracePkg.Path &&
						strings.HasPrefix(c.Name(), "Reason") {
						if usedBy[c.Name()] == nil {
							usedBy[c.Name()] = map[string]bool{}
						}
						usedBy[c.Name()][p.Rel] = true
					}
				case *ast.BasicLit:
					if n.Kind != token.STRING {
						return true
					}
					tv, ok := p.Info.Types[n]
					if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
						return true
					}
					if name, isReason := reasons[constant.StringVal(tv.Value)]; isReason {
						report(p, n.Pos(),
							"drop reason %s spelled as a literal; reference trace.%s so the sim and serve vocabularies cannot drift",
							n.Value, name)
					}
				}
				return true
			})
		}
	}
	if policyPkg == nil || servePkg == nil {
		return
	}
	// Anchor missing-reference reports at the constant declarations.
	names := make([]string, 0, len(reasons))
	for _, name := range reasons {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, side := range []*Package{policyPkg, servePkg} {
			if usedBy[name][side.Rel] {
				continue
			}
			if pos := constDeclPos(tracePkg, name); pos.IsValid() {
				report(tracePkg, pos,
					"trace.%s is not referenced from %s: shared drop-reason vocabulary must be spoken by both the sim and serve paths",
					name, side.Rel)
			}
		}
	}
}

// constDeclPos finds the declaration position of a package-level constant.
func constDeclPos(p *Package, name string) token.Pos {
	if obj := p.Types.Scope().Lookup(name); obj != nil {
		return obj.Pos()
	}
	return token.NoPos
}

// checkMetricFamilies flags "split_*" string literals passed as the family
// name to obs.Registry constructors outside internal/obs (test files
// included — a test spelling a family by hand is exactly how dashboards
// drift from the server).
func checkMetricFamilies(pkgs []*Package, obsPkg *Package, report ModuleReportFunc) {
	if obsPkg == nil {
		return
	}
	for _, p := range pkgs {
		if p.Rel == relObs {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := calleeFunc(p.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPkg.Path {
					return true
				}
				switch fn.Name() {
				case "Counter", "Gauge", "Histogram":
				default:
					return true
				}
				if recvTypeName(fn) != "Registry" {
					return true
				}
				lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING ||
					!strings.HasPrefix(strings.Trim(lit.Value, `"`), "split_") {
					return true
				}
				report(p, lit.Pos(),
					"metric family %s spelled as a literal; reference the obs.Metric* constant so every layer agrees on the family name",
					lit.Value)
				return true
			})
		}
	}
}
