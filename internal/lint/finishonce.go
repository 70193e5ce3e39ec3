package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// NewFinishOnce returns the finishonce analyzer.
//
// The Evaluator contract (internal/core/evaluator.go) says "the evaluator
// must not be reused" after Finish: the aggregation tree has been walked
// and partially reclaimed, the k-ordered tree's collected prefix is gone,
// so a later Add would fold tuples into a structure that no longer
// represents the relation — silently wrong results, not a crash. The check
// is flow-insensitive: within one function body, a call to Add (or a
// second Finish) on the same evaluator value textually after a Finish call
// is flagged, unless the variable is reassigned in between.
//
// core.LiveEvaluator carries the same no-reuse contract with Close as its
// terminal call: Close drops the sealed segments and tail, so Add,
// AddBatch, or Snapshot after Close is a bug (they also fail dynamically
// with ErrLiveClosed; the analyzer surfaces it at build time). Deferred
// Close calls are exempt — `defer ev.Close()` runs at function exit, after
// every textually-later use, so the blessed lifecycle idiom stays clean.
//
// core.IntervalIndex and core.ResultCache (S37) follow the LiveEvaluator
// pattern: Close is terminal, so lookups (At/Range/Result on the index,
// Get/Put on the cache) after Close are flagged, as is a second
// Close. Both fail dynamically too (ErrIndexClosed; the cache goes inert),
// but an inert cache silently misses every Get — a performance bug no test
// asserts on, which is exactly what a static check is for.
//
// With strictStats, Stats calls after Finish/Close are flagged too. The
// default leaves them legal because the documented contract explicitly
// permits Stats "at any point" and reading the final PeakNodes after the
// terminal call is the blessed reporting pattern (core.Run, partition
// workers, the benchmarks).
func NewFinishOnce(strictStats bool) *Analyzer {
	return &Analyzer{
		Name: "finishonce",
		Doc: "flag Add/AddBatch (and with -strict-stats, Stats) calls on a " +
			"core.Evaluator after Finish, use of a core.LiveEvaluator, " +
			"core.IntervalIndex, or core.ResultCache after Close, and " +
			"double Finish/Close",
		Run: func(pass *Pass) error { return runFinishOnce(pass, strictStats) },
	}
}

// evEvent is one use of an evaluator value inside a function body.
type evEvent struct {
	pos    token.Pos
	method string // "Add", "Finish", "Stats", or "" for a reassignment
	expr   string // receiver rendering, for the message
}

// closable is one core type with a terminal Close and the methods that
// must not follow it.
type closable struct {
	typ      types.Type
	methods  map[string]bool // non-terminal methods tracked for this type
	contract string
}

func runFinishOnce(pass *Pass, strictStats bool) error {
	iface := evaluatorInterface(pass.Pkg)
	var closables []closable
	for _, spec := range []struct {
		name     string
		methods  []string
		contract string
	}{
		{"LiveEvaluator", []string{"Add", "AddBatch", "Snapshot", "Stats"},
			"live evaluator must not be used after Close"},
		{"IntervalIndex", []string{"At", "Range", "Result"},
			"interval index must not be used after Close"},
		{"ResultCache", []string{"Get", "Put", "Stats"},
			"result cache must not be used after Close"},
	} {
		t := coreNamedType(pass.Pkg, spec.name)
		if t == nil {
			continue
		}
		ms := map[string]bool{}
		for _, m := range spec.methods {
			ms[m] = true
		}
		closables = append(closables, closable{typ: t, methods: ms, contract: spec.contract})
	}
	if iface == nil && len(closables) == 0 {
		return nil // package cannot name core evaluator values
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFinishOnceBody(pass, iface, closables, fn.Body, strictStats)
				}
			case *ast.FuncLit:
				checkFinishOnceBody(pass, iface, closables, fn.Body, strictStats)
			}
			return true
		})
	}
	return nil
}

// evaluatorInterface finds core.Evaluator in pkg's import closure.
func evaluatorInterface(pkg *types.Package) *types.Interface {
	core := findImport(pkg, corePkgPath, map[*types.Package]bool{})
	if core == nil {
		return nil
	}
	obj := core.Scope().Lookup("Evaluator")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// coreNamedType finds a named core type in pkg's import closure.
func coreNamedType(pkg *types.Package, name string) types.Type {
	core := findImport(pkg, corePkgPath, map[*types.Package]bool{})
	if core == nil {
		return nil
	}
	obj := core.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	return obj.Type()
}

func findImport(pkg *types.Package, path string, seen map[*types.Package]bool) *types.Package {
	if pkg == nil || seen[pkg] {
		return nil
	}
	seen[pkg] = true
	if pkg.Path() == path {
		return pkg
	}
	for _, imp := range pkg.Imports() {
		if found := findImport(imp, path, seen); found != nil {
			return found
		}
	}
	return nil
}

// checkFinishOnceBody analyzes one function body, not descending into
// nested function literals (each gets its own pass; a goroutine body is a
// separate flow).
func checkFinishOnceBody(pass *Pass, iface *types.Interface, closables []closable, body *ast.BlockStmt, strictStats bool) {
	events := map[string][]evEvent{} // receiver key → ordered Evaluator uses
	// closeEvents[i] tracks receivers of closables[i].
	closeEvents := make([]map[string][]evEvent, len(closables))
	for i := range closeEvents {
		closeEvents[i] = map[string][]evEvent{}
	}
	tainted := map[string]bool{}         // receiver key → address taken, skip
	deferred := map[*ast.CallExpr]bool{} // calls in defer statements, exempt

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// A deferred terminal call runs at function exit, after every
			// textually-later use: ordering it by source position would
			// flag the blessed `defer ev.Close()` lifecycle idiom.
			deferred[n.Call] = true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if key, ok := receiverKey(pass, n.X); ok {
					tainted[key] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if key, ok := receiverKey(pass, lhs); ok {
					reset := evEvent{pos: lhs.Pos(), method: "", expr: exprString(lhs)}
					events[key] = append(events[key], reset)
					for i := range closeEvents {
						closeEvents[i][key] = append(closeEvents[i][key], reset)
					}
				}
			}
		case *ast.CallExpr:
			if deferred[n] {
				return true
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			method := sel.Sel.Name
			tv, ok := pass.TypesInfo.Types[sel.X]
			if !ok {
				return true
			}
			key, ok := receiverKey(pass, sel.X)
			if !ok {
				return true
			}
			e := evEvent{pos: n.Pos(), method: method, expr: exprString(sel.X)}
			for i, c := range closables {
				if !isCoreNamedType(tv.Type, c.typ) {
					continue
				}
				if method == "Close" || c.methods[method] {
					closeEvents[i][key] = append(closeEvents[i][key], e)
				}
				return true
			}
			switch method {
			case "Add", "AddBatch", "Finish", "Stats":
				if isEvaluatorType(tv.Type, iface) {
					events[key] = append(events[key], e)
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)

	for key, evs := range events {
		if tainted[key] {
			continue // address escaped; the value may be swapped out
		}
		reportReuse(pass, evs, "Finish", "evaluator must not be reused after Finish", strictStats)
	}
	for i, c := range closables {
		for key, evs := range closeEvents[i] {
			if tainted[key] {
				continue
			}
			reportReuse(pass, evs, "Close", c.contract, strictStats)
		}
	}
}

// reportReuse walks one receiver's uses in source order and reports any use
// after the terminal call ("Finish" for Evaluator, "Close" for
// LiveEvaluator), plus a repeated terminal call.
func reportReuse(pass *Pass, evs []evEvent, terminal, contract string, strictStats bool) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	finished := false
	for _, e := range evs {
		switch e.method {
		case "":
			finished = false // reassigned: a fresh evaluator
		case terminal:
			if finished {
				pass.Reportf(e.pos, "%s called twice on %s (%s)", terminal, e.expr, contract)
			}
			finished = true
		case "Stats":
			if finished && strictStats {
				pass.Reportf(e.pos, "Stats called on %s after %s "+
					"(strict-stats: snapshot Stats before %s)", e.expr, terminal, terminal)
			}
		default:
			if finished {
				pass.Reportf(e.pos, "%s called on %s after %s (%s)",
					e.method, e.expr, terminal, contract)
			}
		}
	}
}

// isCoreNamedType reports whether t is the given named core type or a
// pointer to it.
func isCoreNamedType(t, want types.Type) bool {
	if t == nil || want == nil {
		return false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	return types.Identical(t, want)
}

// isEvaluatorType reports whether a value of type t can be a
// core.Evaluator: the interface itself, or a concrete type whose (pointer)
// method set implements it.
func isEvaluatorType(t types.Type, iface *types.Interface) bool {
	if t == nil || iface == nil {
		return false
	}
	if types.AssignableTo(t, iface) {
		return true
	}
	if _, ok := types.Unalias(t).(*types.Pointer); !ok {
		return types.AssignableTo(types.NewPointer(t), iface)
	}
	return false
}

// receiverKey identifies the evaluator value a method is called on: the
// object for a plain variable, the rendered path for a field selection.
// Calls on arbitrary expressions (function results, index expressions)
// return ok=false — there is no stable identity to track.
func receiverKey(pass *Pass, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return "", false
		}
		return fmt.Sprintf("obj:%p", obj), true
	case *ast.SelectorExpr:
		if base, ok := receiverKey(pass, e.X); ok {
			return base + "." + e.Sel.Name, true
		}
	}
	return "", false
}

// exprString renders a receiver expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "evaluator"
}
