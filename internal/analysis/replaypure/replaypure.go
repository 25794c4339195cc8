// Package replaypure enforces PR 6's replay ≡ live contract on the
// event-apply layer. Recovery replays the journal through applyEvent;
// any wall-clock read, randomness, channel receive, goroutine spawn,
// or write to package-level state inside the apply layer would make a
// replayed exchange diverge from the live one that wrote the journal.
//
// The analyzer roots at every function named "applyEvent" in the
// package, walks the intra-package static call graph (direct calls to
// package-level functions and methods), and checks each reachable
// function for:
//
//   - calls into nondeterministic stdlib: time.Now/Since/Until/After/
//     Tick/NewTimer/NewTicker/Sleep, anything in math/rand or
//     math/rand/v2, anything in os or crypto/rand;
//   - channel receives (<-ch, range over a channel, select);
//   - go statements (scheduling nondeterminism);
//   - assignments through package-level variables (state outside the
//     exchange/region receiver).
//
// Cross-package calls into other clustermarket packages are outside
// this net by design; the contracts those must uphold (deterministic
// placement, pure vector math) are enforced by their own tests and by
// maporder/allocfree where annotated.
package replaypure

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"clustermarket/internal/analysis"
)

// Analyzer is the replaypure check.
var Analyzer = &analysis.Analyzer{
	Name:     "replaypure",
	Packages: analysis.DeterminismCritical,
	Run:      run,
}

// deniedTimeFuncs are the wall-clock and timer entry points of package
// time; pure constructors/formatters (time.Duration math, Unix, Date)
// stay legal.
var deniedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true, "Sleep": true,
}

func run(pass *analysis.Pass) error {
	decls := map[types.Object]*ast.FuncDecl{}
	var roots []types.Object
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			decls[obj] = fd
			if fd.Name.Name == "applyEvent" {
				roots = append(roots, obj)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Breadth-first reachability over direct intra-package calls.
	reachable := map[types.Object]bool{}
	queue := append([]types.Object(nil), roots...)
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		if reachable[obj] {
			continue
		}
		reachable[obj] = true
		fd := decls[obj]
		if fd == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeObj(pass, call); callee != nil {
				if _, local := decls[callee]; local && !reachable[callee] {
					queue = append(queue, callee)
				}
			}
			return true
		})
	}

	for obj, fd := range decls {
		if reachable[obj] {
			checkFunc(pass, fd)
		}
	}
	return nil
}

// calleeObj resolves a call expression to the called function object,
// for direct calls and method calls.
func calleeObj(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	where := func() string {
		return fmt.Sprintf("%s, reachable from applyEvent,", fd.Name.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if pkg, name := calleePackage(pass, n); pkg != "" {
				switch {
				case pkg == "time" && deniedTimeFuncs[name]:
					pass.Reportf(n.Pos(), "%s reads the wall clock (time.%s); replay would diverge from the live run", where(), name)
				case pkg == "math/rand" || pkg == "math/rand/v2" || pkg == "crypto/rand":
					pass.Reportf(n.Pos(), "%s draws randomness (%s.%s); replay would diverge from the live run", where(), pkg, name)
				case pkg == "os":
					pass.Reportf(n.Pos(), "%s touches the environment (os.%s); replay would diverge from the live run", where(), name)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "%s receives from a channel; replay timing would diverge from the live run", where())
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "%s selects over channels; replay timing would diverge from the live run", where())
			return false
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := types.Unalias(tv.Type).Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(), "%s ranges over a channel; replay timing would diverge from the live run", where())
				}
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s spawns a goroutine; replay scheduling would diverge from the live run", where())
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj := rootObj(pass, lhs); obj != nil && isPackageLevelVar(pass, obj) {
					pass.Reportf(lhs.Pos(), "%s writes package-level state (%s); apply-layer mutations must stay inside the receiver", where(), obj.Name())
				}
			}
		case *ast.IncDecStmt:
			if obj := rootObj(pass, n.X); obj != nil && isPackageLevelVar(pass, obj) {
				pass.Reportf(n.Pos(), "%s writes package-level state (%s); apply-layer mutations must stay inside the receiver", where(), obj.Name())
			}
		}
		return true
	})
}

// calleePackage returns the defining package path and name of a called
// package-level function, or "" for local/builtin/method calls.
func calleePackage(pass *analysis.Pass, call *ast.CallExpr) (string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", ""
	}
	if _, ok := obj.(*types.Func); !ok {
		return "", ""
	}
	return obj.Pkg().Path(), obj.Name()
}

// rootObj returns the object at the base of a selector/index chain:
// for a.b.c[i].d it resolves a.
func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			if o := pass.TypesInfo.Uses[x]; o != nil {
				return o
			}
			return pass.TypesInfo.Defs[x]
		default:
			return nil
		}
	}
}

// isPackageLevelVar reports whether obj is a variable declared at
// package scope in the package under analysis.
func isPackageLevelVar(pass *analysis.Pass, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pkg() == pass.Pkg && v.Parent() == pass.Pkg.Scope()
}
