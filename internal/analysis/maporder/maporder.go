// Package maporder flags `range` over a map in determinism-critical
// packages. Go randomizes map iteration order per run, so any map
// range on a path feeding scenario fingerprints, journal replay, or
// the dense≡incremental contract is a latent nondeterminism — the
// exact bug class PR 5 fixed three times by hand (federation failover
// submission order, sim bin-packing placement order, float
// accumulation order in Migration).
//
// A map range is accepted when:
//
//   - the loop is annotated `//marketlint:orderfree <reason>` (the
//     author asserts order-insensitivity and says why), or
//   - the loop body is demonstrably order-insensitive: it only
//     collects keys/values into slices that are sorted immediately
//     after the loop, writes m[k]-keyed entries of another map,
//     deletes, counts with integer accumulators, tracks min/max via
//     the builtins, or assigns into iteration-local variables — all
//     under side-effect-free conditions (pure if/switch guards).
//
// Everything else is reported. Float accumulation (`sum += v` on a
// float) is deliberately NOT order-free: addition order changes the
// bits, which changes fingerprints.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"clustermarket/internal/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name:     "maporder",
	Packages: analysis.DeterminismCritical,
	Run:      run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				checkStmtList(pass, n.List)
			case *ast.CaseClause:
				checkStmtList(pass, n.Body)
			case *ast.CommClause:
				checkStmtList(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// checkStmtList examines one statement list; ranges need their trailing
// statements visible for the collect-then-sort idiom.
func checkStmtList(pass *analysis.Pass, stmts []ast.Stmt) {
	for i, s := range stmts {
		rs, ok := s.(*ast.RangeStmt)
		if !ok || !isMapRange(pass, rs) {
			continue
		}
		if ann := pass.NodeAnnotation(rs, "orderfree"); ann != nil {
			if ann.Args == "" {
				pass.Reportf(rs.For, "//marketlint:orderfree needs a reason")
			}
			continue
		}
		checkMapRange(pass, rs, stmts[i+1:])
	}
}

func isMapRange(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := types.Unalias(tv.Type).Underlying().(*types.Map)
	return isMap
}

// checkMapRange reports rs unless its body is order-insensitive. rest
// holds the statements following the loop in its enclosing block, used
// to verify that collected slices are sorted before any other use.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	key := identObj(pass, rs.Key)
	var collected []ast.Expr // append targets that must be sorted after the loop
	if bad, badPos := orderSensitive(pass, rs.Body.List, key, rs, &collected); bad != "" {
		pass.Reportf(badPos, "map iteration order reaches %s; sort the keys first or annotate the loop //marketlint:orderfree <reason>", bad)
		return
	}
	for _, target := range collected {
		if loopLocal(pass, target, rs) {
			continue // dies with the iteration; nothing escapes
		}
		if !sortedAfter(pass, target, rest) {
			pass.Reportf(rs.For, "slice %s collects map elements in nondeterministic order and is not sorted immediately after the loop; sort it or annotate the loop //marketlint:orderfree <reason>", types.ExprString(target))
			return
		}
	}
}

// orderSensitive scans a loop body; it returns a description and
// position of the first order-sensitive construct, or "" when the body
// is order-insensitive under the package's whitelist.
func orderSensitive(pass *analysis.Pass, stmts []ast.Stmt, key types.Object, loop *ast.RangeStmt, collected *[]ast.Expr) (string, token.Pos) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if d, pos := assignSensitive(pass, s, key, loop, collected); d != "" {
				return d, pos
			}
		case *ast.IncDecStmt:
			// x++ / x-- apply an identical delta per element: the final
			// value depends only on the element count.
		case *ast.ExprStmt:
			if !isDelete(pass, s.X) {
				return "a call with effects", s.Pos()
			}
		case *ast.IfStmt:
			if s.Init != nil && !pureDefine(pass, s.Init) {
				return "an if-statement initializer with effects", s.Init.Pos()
			}
			if !pureExpr(pass, s.Cond) {
				return "an impure if condition", s.Cond.Pos()
			}
			if d, pos := orderSensitive(pass, s.Body.List, key, loop, collected); d != "" {
				return d, pos
			}
			if s.Else != nil {
				var elseStmts []ast.Stmt
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					elseStmts = e.List
				default:
					elseStmts = []ast.Stmt{s.Else}
				}
				if d, pos := orderSensitive(pass, elseStmts, key, loop, collected); d != "" {
					return d, pos
				}
			}
		case *ast.SwitchStmt:
			if s.Init != nil && !pureDefine(pass, s.Init) {
				return "a switch initializer with effects", s.Init.Pos()
			}
			if s.Tag != nil && !pureExpr(pass, s.Tag) {
				return "an impure switch tag", s.Tag.Pos()
			}
			for _, c := range s.Body.List {
				cc, ok := c.(*ast.CaseClause)
				if !ok {
					return "a switch body the order-free whitelist cannot prove commutative", c.Pos()
				}
				for _, e := range cc.List {
					if !pureExpr(pass, e) {
						return "an impure case expression", e.Pos()
					}
				}
				if d, pos := orderSensitive(pass, cc.Body, key, loop, collected); d != "" {
					return d, pos
				}
			}
		case *ast.BlockStmt:
			if d, pos := orderSensitive(pass, s.List, key, loop, collected); d != "" {
				return d, pos
			}
		case *ast.DeclStmt:
			// Local declarations with pure initializers are loop-scoped.
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return "a declaration", s.Pos()
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					return "a declaration", spec.Pos()
				}
				for _, v := range vs.Values {
					if !pureExpr(pass, v) {
						return "an impure local initializer", v.Pos()
					}
				}
			}
		case *ast.BranchStmt:
			if s.Tok == token.CONTINUE {
				continue
			}
			// break/goto: which iteration exits depends on visit order.
			return "an order-dependent " + s.Tok.String(), s.Pos()
		case *ast.ReturnStmt:
			// Early return is an existence check iff the returned values
			// are pure and independent of the iteration element.
			for _, r := range s.Results {
				if !pureExpr(pass, r) || usesObj(pass, r, key) {
					return "an early return of iteration-dependent values", s.Pos()
				}
			}
		case *ast.EmptyStmt:
		default:
			return "a statement the order-free whitelist cannot prove commutative", s.Pos()
		}
	}
	return "", token.NoPos
}

// assignSensitive classifies one assignment inside a map-range body.
func assignSensitive(pass *analysis.Pass, s *ast.AssignStmt, key types.Object, loop *ast.RangeStmt, collected *[]ast.Expr) (string, token.Pos) {
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 && (s.Tok == token.ASSIGN || s.Tok == token.DEFINE) {
		lhs, rhs := s.Lhs[0], s.Rhs[0]
		// x = append(x, ...): collection — deferred to the post-loop
		// sort check (matched textually so st.Board-style selector
		// targets count too).
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(pass, call.Fun, "append") &&
			len(call.Args) > 0 && pureExpr(pass, lhs) &&
			types.ExprString(call.Args[0]) == types.ExprString(lhs) {
			for _, a := range call.Args[1:] {
				if !pureExpr(pass, a) {
					return "an impure append operand", a.Pos()
				}
			}
			// m[k] = append(m[k], v): each key owns its entry, so
			// cross-key ordering cannot show.
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && keyed(pass, ix.Index, key) {
				return "", token.NoPos
			}
			*collected = append(*collected, lhs)
			return "", token.NoPos
		}
		// x = max(x, e) / x = min(x, e): commutative fold.
		if id, ok := lhs.(*ast.Ident); ok {
			if call, ok := rhs.(*ast.CallExpr); ok &&
				(isBuiltin(pass, call.Fun, "max") || isBuiltin(pass, call.Fun, "min")) {
				selfRef := false
				for _, a := range call.Args {
					if aid, ok := a.(*ast.Ident); ok && aid.Name == id.Name {
						selfRef = true
					} else if !pureExpr(pass, a) {
						return "an impure min/max operand", a.Pos()
					}
				}
				if selfRef {
					return "", token.NoPos
				}
			}
		}
		// m[k] = v keyed by the iteration key: distinct keys, no
		// last-write-wins races on ordering.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if keyed(pass, ix.Index, key) && pureExpr(pass, rhs) && pureExpr(pass, ix.X) {
				if _, isMap := types.Unalias(pass.TypesInfo.Types[ix.X].Type).Underlying().(*types.Map); isMap {
					return "", token.NoPos
				}
			}
		}
	}
	// Writes confined to iteration-local variables cannot leak
	// ordering: nothing outside the loop observes them.
	if len(s.Lhs) > 0 && allLoopLocal(pass, s.Lhs, loop) {
		for _, r := range s.Rhs {
			if !effectFree(pass, r, loop) {
				return "an impure right-hand side in an iteration-local write", r.Pos()
			}
		}
		return "", token.NoPos
	}
	// Integer accumulation commutes bit-exactly; float accumulation does not.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			t := pass.TypesInfo.Types[s.Lhs[0]].Type
			if t != nil {
				if b, ok := types.Unalias(t).Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					if pureExpr(pass, s.Rhs[0]) {
						return "", token.NoPos
					}
					return "an impure accumulator operand", s.Rhs[0].Pos()
				}
				if b, ok := types.Unalias(t).Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
					return "a float accumulator (addition order changes the bits)", s.Pos()
				}
			}
		}
	}
	return "an assignment the order-free whitelist cannot prove commutative", s.Pos()
}

// allLoopLocal reports whether every assignment target is confined to
// one iteration of loop.
func allLoopLocal(pass *analysis.Pass, lhs []ast.Expr, loop *ast.RangeStmt) bool {
	for _, e := range lhs {
		if !loopLocal(pass, e, loop) {
			return false
		}
	}
	return true
}

// loopLocal reports whether writing e stays inside one iteration: e is
// an identifier declared within the range statement, or a
// selector/index chain rooted at one whose root is a plain value (a
// write through a loop-local pointer, slice, or map still mutates
// whatever it refers to, which outlives the iteration).
func loopLocal(pass *analysis.Pass, e ast.Expr, loop *ast.RangeStmt) bool {
	through := false
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return true
			}
			obj := identObj(pass, x)
			if obj == nil || obj.Pos() < loop.Pos() || obj.Pos() > loop.End() {
				return false
			}
			if through {
				switch types.Unalias(obj.Type()).Underlying().(type) {
				case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
					return false // reference type: the write escapes the local
				}
			}
			return true
		case *ast.SelectorExpr:
			through = true
			e = x.X
		case *ast.IndexExpr:
			through = true
			e = x.X
		default:
			return false
		}
	}
}

// pureDefine accepts `x, y := <pure>` initializers (the `v, ok := m[k]`
// idiom in if/switch headers).
func pureDefine(pass *analysis.Pass, s ast.Stmt) bool {
	as, ok := s.(*ast.AssignStmt)
	if !ok || as.Tok != token.DEFINE {
		return false
	}
	for _, r := range as.Rhs {
		if !pureExpr(pass, r) {
			return false
		}
	}
	return true
}

// effectFree is pureExpr extended with the allocating builtins — make,
// new, and append whose destination cannot alias memory from outside
// the loop (a fresh non-variable value, or a loop-local slice).
func effectFree(pass *analysis.Pass, e ast.Expr, loop *ast.RangeStmt) bool {
	if pureExpr(pass, e) {
		return true
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch {
	case isBuiltin(pass, call.Fun, "make"), isBuiltin(pass, call.Fun, "new"):
	case isBuiltin(pass, call.Fun, "append"):
		if len(call.Args) == 0 {
			return false
		}
		// Appending into a slice rooted outside the loop can write
		// through shared backing memory when capacity is spare.
		if rootedOutside(pass, call.Args[0], loop) {
			return false
		}
	default:
		return false
	}
	for _, a := range call.Args {
		if !effectFree(pass, a, loop) {
			return false
		}
	}
	return true
}

// rootedOutside reports whether e is a variable chain whose root is
// declared outside the loop. Fresh values (literals, conversions, make
// results) report false.
func rootedOutside(pass *analysis.Pass, e ast.Expr, loop *ast.RangeStmt) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := identObj(pass, x)
			if obj == nil {
				return false // builtin (nil) or unresolved: not a variable
			}
			_, isVar := obj.(*types.Var)
			return isVar && (obj.Pos() < loop.Pos() || obj.Pos() > loop.End())
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return false
		}
	}
}

// sortedAfter reports whether target's first use after the loop is a
// recognized sort call. Matching is textual (types.ExprString) so
// selector targets like st.Board participate.
func sortedAfter(pass *analysis.Pass, target ast.Expr, rest []ast.Stmt) bool {
	want := types.ExprString(target)
	for _, s := range rest {
		if !mentionsExpr(s, want) {
			continue
		}
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		return ok && isSortCall(pass, call, want)
	}
	return false
}

// mentionsExpr reports whether any expression under n prints as want.
func mentionsExpr(n ast.Node, want string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if e, ok := m.(ast.Expr); ok && types.ExprString(e) == want {
			found = true
		}
		return !found
	})
	return found
}

// isSortCall recognizes sort.* and slices.Sort* applied to the target
// expression as the first argument.
func isSortCall(pass *analysis.Pass, call *ast.CallExpr, want string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
	if !ok {
		return false
	}
	switch pn.Imported().Path() {
	case "sort":
		switch sel.Sel.Name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
		default:
			return false
		}
	case "slices":
		if !strings.HasPrefix(sel.Sel.Name, "Sort") {
			return false
		}
	default:
		return false
	}
	return types.ExprString(call.Args[0]) == want
}

// pureExpr reports whether e is side-effect free and call-free (len,
// cap, min, max, and conversions excepted).
func pureExpr(pass *analysis.Pass, e ast.Expr) bool {
	if e == nil {
		return true
	}
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if isBuiltin(pass, n.Fun, "len") || isBuiltin(pass, n.Fun, "cap") ||
				isBuiltin(pass, n.Fun, "min") || isBuiltin(pass, n.Fun, "max") {
				return true
			}
			pure = false
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pure = false
				return false
			}
		case *ast.FuncLit:
			return false // opaque but inert as a value
		}
		return true
	})
	return pure
}

func isDelete(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	return ok && isBuiltin(pass, call.Fun, "delete")
}

func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// keyed reports whether index is exactly the range key variable.
func keyed(pass *analysis.Pass, index ast.Expr, key types.Object) bool {
	if key == nil {
		return false
	}
	id, ok := index.(*ast.Ident)
	return ok && identObj(pass, id) == key
}

func identObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := pass.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Uses[id]
}

// usesObj reports whether any identifier under n resolves to obj.
func usesObj(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && identObj(pass, id) == obj {
			found = true
		}
		return !found
	})
	return found
}
