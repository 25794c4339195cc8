// Package lockdiscipline enforces the exchange's documented mutex
// hierarchy and the pairing rule that every Lock has a same-function
// Unlock.
//
// Two checks:
//
//  1. Pairing: a function that calls x.Lock() (or RLock) must also
//     contain x.Unlock() (or RUnlock) — inline or deferred — for the
//     same lock expression. Handing a held lock to a callee or caller
//     is how the PR 4 settlement deadlocks were born; the rare
//     intentional handoff carries //marketlint:allow lockdiscipline.
//
//  2. Ordering: within a function, locks must be acquired in
//     nondecreasing rank order per the documented hierarchy
//     (exchange.go): auctionMu → settleMu → order stripes → account
//     stripes → the ledger's mu → histMu. Acquiring a lower-ranked lock
//     while holding a higher-ranked one inverts the hierarchy and can
//     deadlock against a thread locking in the documented order.
//
// The check is intraprocedural and syntactic (statements in source
// order); locks not named in the hierarchy table only get the pairing
// check.
package lockdiscipline

import (
	"cmp"
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"clustermarket/internal/analysis"
)

// Analyzer is the lockdiscipline check.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Run:  run,
}

// Hierarchy maps package path → "Type.field" lock token → rank.
// Lower ranks are outer locks. Exported so golden tests can register
// fixture hierarchies.
var Hierarchy = map[string]map[string]int{
	"clustermarket/internal/market": {
		// Documented in exchange.go ("Lock order: auctionMu before
		// settleMu; shard locks are leaves") and apply.go ("account
		// stripes are always the inner lock"). The ledger's lock and
		// histMu sit below the stripes: settlement posts a ledger pair
		// after releasing its stripe, and nothing may grab a stripe while
		// posting.
		"Exchange.auctionMu": 10,
		"Exchange.settleMu":  20,
		"orderShard.mu":      30,
		"accountShard.mu":    40,
		"ledgerBook.mu":      50,
		"Exchange.histMu":    60,
	},
}

// lockOp is one Lock/Unlock call site.
type lockOp struct {
	node     *ast.CallExpr
	expr     string // normalized lock expression, e.g. "as.mu"
	token    string // "Type.field" hierarchy token, "" when unresolvable
	read     bool   // RLock/RUnlock
	lock     bool   // true = acquire, false = release
	deferred bool
}

func run(pass *analysis.Pass) error {
	ranks := Hierarchy[pass.Pkg.Path()]
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, ranks)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, ranks map[string]int) {
	var ops []lockOp
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure is its own extent (often a goroutine body); its
			// pairing is checked against its own ops by a nested pass.
			checkFuncLit(pass, n, ranks)
			return false
		case *ast.DeferStmt:
			if op, ok := classify(pass, n.Call); ok {
				op.deferred = true
				ops = append(ops, op)
			}
			return false
		case *ast.CallExpr:
			if op, ok := classify(pass, n); ok {
				ops = append(ops, op)
			}
		}
		return true
	})
	report(pass, ops, ranks)
}

func checkFuncLit(pass *analysis.Pass, fl *ast.FuncLit, ranks map[string]int) {
	var ops []lockOp
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFuncLit(pass, n, ranks)
			return false
		case *ast.DeferStmt:
			if op, ok := classify(pass, n.Call); ok {
				op.deferred = true
				ops = append(ops, op)
			}
			return false
		case *ast.CallExpr:
			if op, ok := classify(pass, n); ok {
				ops = append(ops, op)
			}
		}
		return true
	})
	report(pass, ops, ranks)
}

// classify recognizes sync.Mutex / sync.RWMutex Lock-family calls.
func classify(pass *analysis.Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	recv := receiverTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return lockOp{}, false
	}
	op := lockOp{node: call, expr: types.ExprString(sel.X), token: lockToken(pass, sel.X)}
	switch fn.Name() {
	case "Lock":
		op.lock = true
	case "RLock":
		op.lock, op.read = true, true
	case "Unlock":
	case "RUnlock":
		op.read = true
	default:
		return lockOp{}, false // TryLock etc.: not a discipline event
	}
	return op, true
}

func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// lockToken derives the "OwnerType.field" hierarchy token for a lock
// expression like e.settleMu or as.mu.
func lockToken(pass *analysis.Pass, x ast.Expr) string {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	field, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !field.IsField() {
		return ""
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return ""
	}
	t := s.Recv()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	return n.Obj().Name() + "." + field.Name()
}

// report runs the pairing and ordering checks over one extent's ops,
// which arrive in source order.
func report(pass *analysis.Pass, ops []lockOp, ranks map[string]int) {
	// Pairing: every acquire needs a release of the same expression
	// (and read-ness) somewhere in the same extent.
	type key struct {
		expr string
		read bool
	}
	released := map[key]bool{}
	for _, op := range ops {
		if !op.lock {
			released[key{op.expr, op.read}] = true
		}
	}
	for _, op := range ops {
		if op.lock && !released[key{op.expr, op.read}] {
			verb, unlock := "Lock", "Unlock"
			if op.read {
				verb, unlock = "RLock", "RUnlock"
			}
			pass.Reportf(op.node.Pos(), "%s.%s() has no matching %s in this function; unlock here (defer works) or annotate the handoff //marketlint:allow lockdiscipline <reason>", op.expr, verb, unlock)
		}
	}

	// Ordering against the documented hierarchy.
	if len(ranks) == 0 {
		return
	}
	type held struct {
		op   lockOp
		rank int
	}
	var stack []held
	for _, op := range ops {
		rank, ranked := ranks[op.token]
		if !op.lock {
			if op.deferred {
				continue // releases at return; the lock stays held below
			}
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].op.expr == op.expr && stack[i].op.read == op.read {
					stack = append(stack[:i], stack[i+1:]...)
					break
				}
			}
			continue
		}
		if ranked {
			for _, h := range stack {
				if hr, ok := ranks[h.op.token]; ok && hr > rank {
					pass.Reportf(op.node.Pos(), "acquires %s (rank %d) while holding %s (rank %d): violates the documented lock hierarchy %s", op.token, rank, h.op.token, hr, hierarchyDoc(ranks))
				}
			}
		}
		stack = append(stack, held{op, rank})
	}
}

// hierarchyDoc renders the package's hierarchy in rank order for the
// diagnostic message.
func hierarchyDoc(ranks map[string]int) string {
	type ent struct {
		tok  string
		rank int
	}
	ents := make([]ent, 0, len(ranks))
	for t, r := range ranks {
		ents = append(ents, ent{t, r})
	}
	slices.SortFunc(ents, func(a, b ent) int {
		return cmp.Or(cmp.Compare(a.rank, b.rank), strings.Compare(a.tok, b.tok))
	})
	out := ""
	for i, e := range ents {
		if i > 0 {
			out += " → "
		}
		out += e.tok
	}
	return out
}
