// Package allocfree turns the repo's benchmark-pinned zero-allocation
// claims (TestSteadyStateRoundsAllocationFree, the firehose
// no-subscriber fast path, the O(1) budget check+commit) into a
// compile-time gate. A function annotated `//marketlint:allocfree` in
// its doc comment must not contain:
//
//   - fmt.* calls (the argument pack boxes and escapes);
//   - append that may grow, or make/new/map/slice literals, outside an
//     amortized-growth guard (an if whose condition consults len/cap);
//   - interface boxing of non-pointer values (conversions, arguments
//     to interface parameters, interface assignments and returns);
//   - closures that capture variables, and go statements;
//   - string concatenation or string<->[]byte/[]rune conversions;
//   - calls to functions the analyzer cannot vouch for: a callee in
//     the module, in this package or another, must itself be
//     annotated allocfree (and so has its body checked in turn); a
//     standard-library callee must be on a short allowlist (math,
//     sync/atomic, ...).
//
// Escape analysis is out of scope: stack-allocatable constructs
// (struct literals, &T{} that does not escape) are deliberately not
// flagged — the runtime allocation tests remain the ground truth for
// escapes, while this analyzer pins the constructs that always (or
// almost always) hit the heap. Deliberate exceptions carry
// `//marketlint:allow allocfree <reason>`.
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"

	"clustermarket/internal/analysis"
)

// Analyzer is the allocfree check.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Run:  run,
}

// allowedPackages are standard-library callees vouched alloc-free in
// their entirety (value-kernel math, lock/atomic primitives).
var allowedPackages = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync":        true,
	"sync/atomic": true,
}

// vouchedFuncs lists individual standard-library callees vouched
// alloc-free where a package-wide allowlist would be far too broad.
// Module callees are vouched by their own allocfree annotation instead.
var vouchedFuncs = map[string]bool{
	"runtime.GOMAXPROCS": true, // reads or sets a scheduler word
	// The append-style encoders grow only the buffer the caller passes
	// in — its amortized scratch — exactly as `s = append(s, ...)` does.
	"encoding/binary.AppendUvarint": true,
	"encoding/binary.AppendUint64":  true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.FuncAnnotation(fd, "allocfree") == nil {
				continue
			}
			c := &checker{pass: pass, fn: fd.Name.Name, decl: fd, vouched: map[*ast.CallExpr]bool{}}
			c.stmts(fd.Body.List, false)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	fn   string
	decl *ast.FuncDecl
	// vouched marks append calls recognized as caller-owned scratch
	// growth (see scratchAppend).
	vouched map[*ast.CallExpr]bool
}

// stmts walks a statement list; guarded tracks whether execution is
// inside an amortized-growth guard (an if conditioned on len/cap).
func (c *checker) stmts(list []ast.Stmt, guarded bool) {
	for _, s := range list {
		c.stmt(s, guarded)
	}
}

func (c *checker) stmt(s ast.Stmt, guarded bool) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, guarded)
		}
		c.expr(s.Cond, guarded)
		g := guarded || mentionsLenCap(c.pass, s.Cond)
		c.stmts(s.Body.List, g)
		if s.Else != nil {
			c.stmt(s.Else, g)
		}
	case *ast.BlockStmt:
		c.stmts(s.List, guarded)
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, guarded)
		}
		c.expr(s.Cond, guarded)
		if s.Post != nil {
			c.stmt(s.Post, guarded)
		}
		c.stmts(s.Body.List, guarded)
	case *ast.RangeStmt:
		c.expr(s.X, guarded)
		c.stmts(s.Body.List, guarded)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, guarded)
		}
		c.expr(s.Tag, guarded)
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					c.expr(e, guarded)
				}
				c.stmts(cc.Body, guarded)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, guarded)
		}
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				c.stmts(cc.Body, guarded)
			}
		}
	case *ast.GoStmt:
		c.pass.Reportf(s.Pos(), "%s is annotated allocfree but spawns a goroutine", c.fn)
	case *ast.DeferStmt:
		// Open-coded defers are allocation-free since Go 1.14; check
		// the deferred call's own constructs only.
		c.expr(s.Call, guarded)
	case *ast.AssignStmt:
		c.assign(s, guarded)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.expr(r, guarded)
		}
	case *ast.ExprStmt:
		c.expr(s.X, guarded)
	case *ast.SendStmt:
		c.expr(s.Chan, guarded)
		c.expr(s.Value, guarded)
		c.boxing(s.Value, chanElem(c.pass, s.Chan), guarded)
	case *ast.IncDecStmt:
		c.expr(s.X, guarded)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, guarded)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, guarded)
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CommClause); ok {
				if cc.Comm != nil {
					c.stmt(cc.Comm, guarded)
				}
				c.stmts(cc.Body, guarded)
			}
		}
	}
}

func (c *checker) assign(s *ast.AssignStmt, guarded bool) {
	c.markScratchAppend(s)
	for _, rhs := range s.Rhs {
		c.expr(rhs, guarded)
	}
	for _, lhs := range s.Lhs {
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			c.expr(ix, guarded)
		}
	}
	if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isStringType(c.pass.TypesInfo.Types[s.Lhs[0]].Type) {
		c.pass.Reportf(s.Pos(), "%s is annotated allocfree but concatenates strings", c.fn)
	}
	// Interface assignment boxing: x (interface) = y (concrete non-pointer).
	if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
		for i, lhs := range s.Lhs {
			if i >= len(s.Rhs) {
				break
			}
			if t := c.pass.TypesInfo.Types[lhs].Type; t != nil {
				c.boxing(s.Rhs[i], t, guarded)
			}
		}
	}
}

// expr walks one expression tree.
func (c *checker) expr(e ast.Expr, guarded bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.call(n, guarded)
		case *ast.FuncLit:
			c.funcLit(n)
			return false
		case *ast.CompositeLit:
			c.composite(n, guarded)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(c.pass.TypesInfo.Types[n].Type) {
				c.pass.Reportf(n.Pos(), "%s is annotated allocfree but concatenates strings", c.fn)
			}
		}
		return true
	})
}

func (c *checker) call(call *ast.CallExpr, guarded bool) {
	// Type conversions.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := c.pass.TypesInfo.Types[call.Args[0]].Type
			if stringBytesConversion(from, to) {
				c.pass.Reportf(call.Pos(), "%s is annotated allocfree but converts between string and byte/rune slice", c.fn)
			}
			c.boxing(call.Args[0], to, guarded)
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				if !guarded && !c.vouched[call] {
					c.pass.Reportf(call.Pos(), "%s is annotated allocfree but this append may grow its backing array; grow scratch under a len/cap guard instead", c.fn)
				}
			case "make", "new":
				if !guarded {
					c.pass.Reportf(call.Pos(), "%s is annotated allocfree but calls %s outside a len/cap growth guard", c.fn, id.Name)
				}
			}
			return
		}
	}

	c.callee(call)
	c.callBoxing(call, guarded)
}

// markScratchAppend recognizes `s = append(s, ...)` where s is rooted
// in a parameter or the receiver: growth then lands in the caller's
// amortized scratch (reset-and-reuse across runs), not a fresh
// allocation per call — the settle/markStalePool idiom. The matched
// call is vouched; its operand expressions are still checked.
func (c *checker) markScratchAppend(s *ast.AssignStmt) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 || (s.Tok != token.ASSIGN && s.Tok != token.DEFINE) {
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return
	}
	if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	if types.ExprString(call.Args[0]) != types.ExprString(s.Lhs[0]) {
		return
	}
	if c.paramRooted(s.Lhs[0]) {
		c.vouched[call] = true
	}
}

// paramRooted reports whether e is a selector/index chain rooted at one
// of the enclosing function's parameters or its receiver.
func (c *checker) paramRooted(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj, ok := c.pass.TypesInfo.Uses[x].(*types.Var)
			if !ok {
				return false
			}
			return c.decl != nil && obj.Pos() >= c.decl.Pos() && obj.Pos() < c.decl.Body.Pos()
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return false
		}
	}
}

// callee vets who is being called.
func (c *checker) callee(call *ast.CallExpr) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = c.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = c.pass.TypesInfo.Uses[fun.Sel]
	default:
		c.pass.Reportf(call.Pos(), "%s is annotated allocfree but calls through a function value the analyzer cannot vouch for", c.fn)
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		// Calling a function-typed variable or field.
		c.pass.Reportf(call.Pos(), "%s is annotated allocfree but calls through a function value the analyzer cannot vouch for", c.fn)
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return // builtin-ish (error.Error, unsafe)
	}
	switch {
	case pkg.Path() == "fmt":
		c.pass.Reportf(call.Pos(), "%s is annotated allocfree but calls fmt.%s, which allocates its argument pack", c.fn, fn.Name())
	case c.pass.FuncAnnotated(fn, "allocfree"):
		// checked at its own declaration
	case allowedPackages[pkg.Path()], vouchedFuncs[pkg.Path()+"."+fn.Name()]:
		// vouched
	case pkg == c.pass.Pkg:
		c.pass.Reportf(call.Pos(), "%s is annotated allocfree but calls %s, which is not; annotate %s //marketlint:allocfree or restructure", c.fn, fn.Name(), fn.Name())
	default:
		c.pass.Reportf(call.Pos(), "%s is annotated allocfree but calls %s.%s, which the analyzer cannot vouch for", c.fn, pkg.Name(), fn.Name())
	}
}

// callBoxing flags concrete non-pointer arguments passed to interface
// parameters (the convT family allocates).
func (c *checker) callBoxing(call *ast.CallExpr, guarded bool) {
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := types.Unalias(tv.Type).Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			c.boxing(arg, pt, guarded)
		}
	}
}

// boxing reports when expr, of concrete non-pointer-shaped type, is
// converted to an interface target type.
func (c *checker) boxing(expr ast.Expr, target types.Type, guarded bool) {
	if target == nil || !types.IsInterface(types.Unalias(target).Underlying()) {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() {
		return
	}
	from := types.Unalias(tv.Type)
	if types.IsInterface(from.Underlying()) {
		return
	}
	if pointerShaped(from) {
		return
	}
	c.pass.Reportf(expr.Pos(), "%s is annotated allocfree but boxes a %s into an interface", c.fn, from)
}

// pointerShaped reports whether values of t fit an interface word
// without allocating.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}

// funcLit flags closures that capture variables.
func (c *checker) funcLit(fl *ast.FuncLit) {
	captured := map[types.Object]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || captured[v] {
			return true
		}
		// Captured: a variable declared outside the literal but not at
		// package level (globals are addressed directly, not captured).
		if v.Parent() == c.pass.Pkg.Scope() {
			return true
		}
		if v.Pos() < fl.Pos() || v.Pos() > fl.End() {
			captured[v] = true
			c.pass.Reportf(id.Pos(), "%s is annotated allocfree but a closure captures %s (the capture escapes to the heap)", c.fn, v.Name())
		}
		return true
	})
}

// composite flags map and slice literals (always heap-backed when they
// escape the frame — and the gate errs toward the explicit classes).
func (c *checker) composite(cl *ast.CompositeLit, guarded bool) {
	tv, ok := c.pass.TypesInfo.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	switch types.Unalias(tv.Type).Underlying().(type) {
	case *types.Map:
		c.pass.Reportf(cl.Pos(), "%s is annotated allocfree but builds a map literal", c.fn)
	case *types.Slice:
		if !guarded {
			c.pass.Reportf(cl.Pos(), "%s is annotated allocfree but builds a slice literal outside a growth guard", c.fn)
		}
	}
}

// mentionsLenCap reports whether cond consults len or cap — the shape
// of an amortized-growth guard.
func mentionsLenCap(pass *analysis.Pass, cond ast.Expr) bool {
	if cond == nil {
		return false
	}
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func stringBytesConversion(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	return (isStringType(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isStringType(to))
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func chanElem(pass *analysis.Pass, ch ast.Expr) types.Type {
	t := pass.TypesInfo.Types[ch].Type
	if t == nil {
		return nil
	}
	if c, ok := types.Unalias(t).Underlying().(*types.Chan); ok {
		return c.Elem()
	}
	return nil
}
