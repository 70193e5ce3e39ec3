package lint

import (
	"go/ast"
	"go/token"
)

// An intraprocedural control-flow graph over one function body, the
// substrate for the flow-sensitive analyzers (arenaescape, poolbalance,
// unlockpath). The builder lowers Go's structured control flow
// into basic blocks of ast.Node slices connected by successor edges; the
// worklist solver in dataflow.go then pushes per-analyzer lattice facts
// through it.
//
// Design choices, in decreasing order of consequence:
//
//   - Statement granularity. A block's Nodes are the statements (and the
//     branch condition expression, last) executed unconditionally once the
//     block is entered. Analyzers see every node in order via their
//     Transfer function.
//   - Branch edges are labeled. When Block.Cond is non-nil the block ends
//     in a two-way branch: Succs[0] is the true edge, Succs[1] the false
//     edge, and the solver calls Branch(cond, taken, fact) so analyzers
//     can refine facts from the condition (nil checks, TryLock results).
//     Multi-way branches (switch, select, range) carry Cond == nil and
//     propagate unrefined.
//   - Function literals are opaque. A FuncLit body is its own flow (every
//     analyzer runs on it separately), so the builder records the literal
//     as an ordinary node without descending.
//   - Termination is syntactic. panic(...), os.Exit, runtime.Goexit, and
//     the testing/log Fatal/Skip family end a block with no successors;
//     the deliberately small list is documented on terminates. Analyzers
//     that must check "lock still held at exit" report at ReturnStmt,
//     ImplicitReturn, and terminator nodes rather than at a synthetic
//     exit block, so every diagnostic has a real position.
type CFG struct {
	// Blocks in allocation order; Blocks[0] is the entry block. Blocks
	// unreachable from the entry (dead code after return, break targets
	// never broken to) are present but the solver never visits them.
	Blocks []*Block
}

// A Block is one basic block.
type Block struct {
	Index int
	// Nodes are the statements executed on entry, in order. The slice may
	// end with the branch condition expression when Cond != nil, so
	// transfer functions observe calls inside conditions.
	Nodes []ast.Node
	// Cond is the two-way branch condition: Succs[0] is taken when Cond
	// is true, Succs[1] when false. Nil for unconditional or multi-way
	// successors.
	Cond  ast.Expr
	Succs []*Block
}

// ImplicitReturn marks falling off the end of a function body (or of a
// path that reaches it). It lets analyzers treat "function ends" uniformly
// with explicit returns while still carrying a position.
type ImplicitReturn struct{ pos token.Pos }

func (r *ImplicitReturn) Pos() token.Pos { return r.pos }
func (r *ImplicitReturn) End() token.Pos { return r.pos }

// BuildCFG lowers body into a control-flow graph. The builder never fails:
// unstructured edges it cannot resolve (goto to a missing label, which
// cannot type-check anyway) simply terminate their block.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{labels: map[string]*labelFrame{}}
	entry := b.newBlock()
	b.cur = entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.append(&ImplicitReturn{pos: body.Rbrace})
	}
	b.resolveGotos()
	return &CFG{Blocks: b.blocks}
}

type loopFrame struct {
	brk, cont *Block
}

type labelFrame struct {
	// target receives gotos naming the label; it is the block of the
	// labeled statement itself.
	target *Block
	// loop is non-nil when the labeled statement is a for/range/switch/
	// select, for labeled break/continue.
	loop *loopFrame
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	blocks []*Block
	cur    *Block // nil after a terminator: subsequent stmts are dead
	loops  []*loopFrame
	labels map[string]*labelFrame
	gotos  []pendingGoto
	// nextLabel names the label attached to the statement about to be
	// lowered, so for/switch/select can register themselves for labeled
	// break/continue.
	nextLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.blocks)}
	b.blocks = append(b.blocks, blk)
	return blk
}

// startBlock begins a new current block reached only by explicit edges.
func (b *cfgBuilder) startBlock() *Block {
	blk := b.newBlock()
	b.cur = blk
	return blk
}

func (b *cfgBuilder) append(n ast.Node) {
	if b.cur != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// jump ends the current block with an edge to target.
func (b *cfgBuilder) jump(target *Block) {
	b.edge(b.cur, target)
	b.cur = nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	if b.cur == nil {
		// Dead code after a terminator still gets blocks (a label inside
		// may make it reachable), so start a fresh unreachable block.
		switch s.(type) {
		case *ast.LabeledStmt, *ast.EmptyStmt:
		default:
			b.startBlock()
		}
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.append(s)
		b.cur = nil
	case *ast.ExprStmt:
		b.append(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && terminates(call) {
			b.cur = nil
		}
	case *ast.EmptyStmt:
	default:
		// Assign, Decl, Defer, Go, Send, IncDec, ...: straight-line.
		b.append(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.append(s.Init)
	}
	b.append(s.Cond)
	condBlk := b.cur
	condBlk.Cond = s.Cond

	then := b.startBlock()
	b.edge(condBlk, then)
	b.stmtList(s.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	var elseBlk *Block
	if s.Else != nil {
		elseBlk = b.startBlock()
		b.edge(condBlk, elseBlk)
		b.stmt(s.Else)
		elseEnd = b.cur
	}

	after := b.newBlock()
	if s.Else == nil {
		b.edge(condBlk, after) // false edge
	} else {
		b.edge(elseEnd, after)
	}
	b.edge(thenEnd, after)
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.append(s.Init)
	}
	head := b.newBlock()
	b.jump(head)
	b.cur = head
	after := b.newBlock()
	if s.Cond != nil {
		b.append(s.Cond)
		head.Cond = s.Cond
	}
	body := b.newBlock()
	b.edge(head, body)
	if s.Cond != nil {
		b.edge(head, after)
	}

	post := head
	if s.Post != nil {
		post = b.newBlock()
	}
	frame := &loopFrame{brk: after, cont: post}
	b.pushLoop(frame, label)
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(post)
	b.popLoop(label)
	if s.Post != nil {
		b.cur = post
		b.append(s.Post)
		b.jump(head)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock()
	b.jump(head)
	b.cur = head
	// The range expression (and per-iteration key/value assignment) is
	// re-evaluated at the head; analyzers see the statement itself.
	b.append(s)
	after := b.newBlock()
	body := b.newBlock()
	b.edge(head, body)
	b.edge(head, after)

	frame := &loopFrame{brk: after, cont: head}
	b.pushLoop(frame, label)
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(head)
	b.popLoop(label)
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.append(s.Init)
	}
	if s.Tag != nil {
		b.append(s.Tag)
	}
	head := b.cur
	after := b.newBlock()
	frame := &loopFrame{brk: after}
	b.pushLoop(frame, label)

	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		bodies[i] = b.newBlock()
		b.edge(head, bodies[i])
		if c.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, c := range clauses {
		b.cur = bodies[i]
		for _, e := range c.List {
			b.append(e)
		}
		b.stmtList(c.Body)
		if _, ok := fallsThrough(c.Body); ok && i+1 < len(bodies) {
			b.jump(bodies[i+1])
		} else {
			b.jump(after)
		}
	}
	b.popLoop(label)
	b.cur = after
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.append(s.Init)
	}
	b.append(s.Assign)
	head := b.cur
	after := b.newBlock()
	frame := &loopFrame{brk: after}
	b.pushLoop(frame, label)

	hasDefault := false
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		body := b.newBlock()
		b.edge(head, body)
		if cc.List == nil {
			hasDefault = true
		}
		b.cur = body
		b.stmtList(cc.Body)
		b.jump(after)
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.popLoop(label)
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.cur
	after := b.newBlock()
	frame := &loopFrame{brk: after}
	b.pushLoop(frame, label)
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		if cc.Comm != nil {
			b.append(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.jump(after)
	}
	// A select with no cases blocks forever, so after has no predecessor
	// and stays unreachable — exactly the semantics the solver wants.
	b.popLoop(label)
	b.cur = after
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	target := b.newBlock()
	b.jump(target)
	b.cur = target
	b.labels[s.Label.Name] = &labelFrame{target: target}
	b.nextLabel = s.Label.Name
	b.stmt(s.Stmt)
	b.nextLabel = ""
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.append(s)
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if lf := b.labels[s.Label.Name]; lf != nil && lf.loop != nil {
				b.jump(lf.loop.brk)
				return
			}
		} else if f := b.innerLoop(); f != nil {
			b.jump(f.brk)
			return
		}
		b.cur = nil
	case token.CONTINUE:
		if s.Label != nil {
			if lf := b.labels[s.Label.Name]; lf != nil && lf.loop != nil && lf.loop.cont != nil {
				b.jump(lf.loop.cont)
				return
			}
		} else if f := b.innerContinueLoop(); f != nil {
			b.jump(f.cont)
			return
		}
		b.cur = nil
	case token.GOTO:
		if s.Label != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Handled structurally by switchStmt via fallsThrough; the
		// statement itself is a no-op here.
	}
}

func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		if lf := b.labels[g.label]; lf != nil {
			b.edge(g.from, lf.target)
		}
	}
}

func (b *cfgBuilder) pushLoop(f *loopFrame, label string) {
	b.loops = append(b.loops, f)
	if label != "" {
		if lf := b.labels[label]; lf != nil {
			lf.loop = f
		}
	}
}

func (b *cfgBuilder) popLoop(string) {
	b.loops = b.loops[:len(b.loops)-1]
}

// innerLoop is the break target: the innermost for/range/switch/select.
func (b *cfgBuilder) innerLoop() *loopFrame {
	if n := len(b.loops); n > 0 {
		return b.loops[n-1]
	}
	return nil
}

// innerContinueLoop is the continue target: the innermost for/range frame
// (switch/select frames have no continue target).
func (b *cfgBuilder) innerContinueLoop() *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].cont != nil {
			return b.loops[i]
		}
	}
	return nil
}

func (b *cfgBuilder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

// fallsThrough reports whether a case body ends in a fallthrough
// statement (possibly inside a trailing labeled statement).
func fallsThrough(body []ast.Stmt) (token.Pos, bool) {
	if len(body) == 0 {
		return token.NoPos, false
	}
	last := body[len(body)-1]
	for {
		if ls, ok := last.(*ast.LabeledStmt); ok {
			last = ls.Stmt
			continue
		}
		break
	}
	if bs, ok := last.(*ast.BranchStmt); ok && bs.Tok == token.FALLTHROUGH {
		return bs.Pos(), true
	}
	return token.NoPos, false
}

// terminates reports whether call never returns, judged syntactically: the
// builtin panic, os.Exit, runtime.Goexit, and the log/testing Fatal, Skip,
// and FailNow families. Syntactic matching can misjudge a user-defined
// method that happens to share a name, which errs toward fewer findings
// (paths are cut short), never toward false positives.
func terminates(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Fatal", "Fatalf", "Fatalln", "FailNow", "SkipNow", "Skip", "Skipf", "Goexit":
			return true
		case "Exit":
			if id, ok := fun.X.(*ast.Ident); ok && id.Name == "os" {
				return true
			}
		}
	}
	return false
}

// isTerminator reports whether n is a statement that exits the function
// abruptly (panic, os.Exit, a Fatal helper), for analyzers that flag
// "exits while holding a resource".
func isTerminator(n ast.Node) (ast.Node, bool) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok || !terminates(call) {
		return nil, false
	}
	return es, true
}
