// Package lint implements tempagglint, a domain-aware static-analysis
// suite for the tempagg code base.
//
// The paper's algorithms rest on invariants the Go compiler cannot see:
// constant intervals must satisfy Start <= End (interval.Validate), an
// Evaluator must not be reused after Finish (internal/core/evaluator.go),
// memory accounting must go through core.NodeBytes rather than hardcoded
// 16s (§6.2 of Kline & Snodgrass), and the structures shared by concurrent
// callers must not have their locks copied. Each analyzer in this package
// machine-checks one of those invariants.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API (Analyzer, Pass, Diagnostic) so analyzers can be ported to the real
// multichecker verbatim, but it is self-contained: this repository builds
// offline, so the suite runs on the standard library's go/ast and go/types
// alone, with export data for dependencies supplied by `go list -export`
// (see load.go).
//
// Suppressing a finding: a comment of the form
//
//	//tempagglint:ignore <analyzer> <reason>
//
// on the flagged line, or alone on the line directly above it, silences
// that analyzer there. The reason is mandatory by convention — a
// suppression without a justification should not survive review.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// directives. It must be a valid Go identifier.
	Name string
	// Doc is the one-paragraph description shown by `tempagglint -list`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Config parameterizes the suite.
type Config struct {
	// StrictStats makes finishonce flag Stats calls after Finish as well.
	// The documented Evaluator contract permits Stats "at any point" —
	// reading the final PeakNodes after Finish is the blessed reporting
	// pattern — so this is off by default.
	StrictStats bool
}

// Analyzers returns the full suite under cfg: the five syntactic/type
// checks plus the four CFG/dataflow analyzers (cfg.go, dataflow.go).
func Analyzers(cfg Config) []*Analyzer {
	return []*Analyzer{
		IntervalBounds,
		NewFinishOnce(cfg.StrictStats),
		ErrDrop,
		NodeBytes,
		LockCopy,
		ArenaEscape,
		PoolBalance,
		AtomicMix,
		UnlockPath,
	}
}

// Run applies each analyzer to each package and returns the surviving
// diagnostics sorted by position, with suppressed findings removed.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunWithAudit(prog, analyzers)
	return diags, err
}

// RunWithAudit is Run plus the suppression audit: every
// //tempagglint:ignore directive parsed from the analyzed packages, with
// its reason and whether it actually suppressed a finding. The driver
// uses the audit to reject reasonless directives, flag stale ones, and
// enforce the baseline's ignore-count budget.
func RunWithAudit(prog *Program, analyzers []*Analyzer) ([]Diagnostic, []Directive, error) {
	var diags []Diagnostic
	var directives []Directive
	for _, pkg := range prog.Packages {
		pkgDiags, pkgDirs, err := runPackage(prog, pkg, analyzers)
		if err != nil {
			return nil, nil, err
		}
		diags = append(diags, pkgDiags...)
		directives = append(directives, pkgDirs...)
	}
	sortDiagnostics(diags)
	sort.Slice(directives, func(i, j int) bool {
		a, b := directives[i].Pos, directives[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return diags, directives, nil
}

// RunPackage applies each analyzer to one package (which need not be in
// prog.Packages — linttest checks fixture packages against the program's
// import graph) and returns its surviving diagnostics in position order.
func RunPackage(prog *Program, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := runPackage(prog, pkg, analyzers)
	return diags, err
}

func runPackage(prog *Program, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, []Directive, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      prog.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	var directives []Directive
	diags, directives = filterSuppressed(prog.Fset, pkg, diags)
	sortDiagnostics(diags)
	return diags, directives, nil
}

func sortDiagnostics(diags []Diagnostic) {
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
		return a.Analyzer < b.Analyzer
	})
}

// ignoreDirective is the comment prefix that suppresses a finding.
const ignoreDirective = "tempagglint:ignore"

// A Directive is one parsed //tempagglint:ignore comment. The driver
// audits these: a directive without a Reason is an error, and a
// directive that never suppressed anything (Used == false) is stale
// and must be removed.
type Directive struct {
	// Pos locates the directive comment itself.
	Pos token.Position
	// Analyzers lists the analyzer names the directive silences; the
	// special name "*" silences every analyzer.
	Analyzers []string
	// Reason is the justification text after the analyzer list. It is
	// mandatory: reasonless suppressions fail the driver.
	Reason string
	// Used reports whether the directive suppressed at least one
	// diagnostic in this run.
	Used bool
}

// suppressions maps file → line → the directives covering that line.
// Each entry points into the list so usage marks are shared between the
// directive's own line and the line below it.
type suppressions struct {
	byLine map[string]map[int][]*Directive
	list   []*Directive
}

func collectSuppressions(fset *token.FileSet, pkg *Package) *suppressions {
	sup := &suppressions{byLine: map[string]map[int][]*Directive{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(text, ignoreDirective)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				d := &Directive{
					Pos:       pos,
					Analyzers: strings.Split(fields[0], ","),
					Reason:    strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0])),
				}
				sup.list = append(sup.list, d)
				byLine := sup.byLine[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*Directive{}
					sup.byLine[pos.Filename] = byLine
				}
				// The directive covers its own line and the next, so a
				// comment directly above the flagged statement works.
				byLine[pos.Line] = append(byLine[pos.Line], d)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], d)
			}
		}
	}
	return sup
}

func (d *Directive) matches(analyzer string) bool {
	for _, n := range d.Analyzers {
		if n == "*" || n == analyzer {
			return true
		}
	}
	return false
}

func filterSuppressed(fset *token.FileSet, pkg *Package, diags []Diagnostic) ([]Diagnostic, []Directive) {
	sup := collectSuppressions(fset, pkg)
	kept := diags[:0]
	for _, d := range diags {
		ignored := false
		for _, dir := range sup.byLine[d.Pos.Filename][d.Pos.Line] {
			if dir.matches(d.Analyzer) {
				dir.Used = true
				ignored = true
			}
		}
		if !ignored {
			kept = append(kept, d)
		}
	}
	out := make([]Directive, len(sup.list))
	for i, dir := range sup.list {
		out[i] = *dir
	}
	return kept, out
}

// ---- shared helpers used by several analyzers ----

const (
	intervalPkgPath = "tempagg/internal/interval"
	tuplePkgPath    = "tempagg/internal/tuple"
	corePkgPath     = "tempagg/internal/core"
	modulePath      = "tempagg"
)

// inModule reports whether pkg belongs to the tempagg module.
func inModule(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == modulePath || strings.HasPrefix(p, modulePath+"/")
}

// namedType unwraps aliases and pointers down to a *types.Named, if any.
func namedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (or *t) is the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// calleeFunc resolves the called function or method, if statically known.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.Ident:
		obj = info.Uses[fun]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// errorResults returns the indices of error-typed results of sig.
func errorResults(sig *types.Signature) []int {
	var idx []int
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			idx = append(idx, i)
		}
	}
	return idx
}

// funcDisplayName renders fn as pkg.Name or (pkg.Recv).Name for messages.
func funcDisplayName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if n := namedType(t); n != nil {
			return fmt.Sprintf("(%s.%s).%s", n.Obj().Pkg().Name(), n.Obj().Name(), fn.Name())
		}
		return fmt.Sprintf("(%s).%s", types.TypeString(t, nil), fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
