package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"threadscan/internal/lint/analysis"
)

// wallclockBanned are the time-package entry points that read or wait
// on the host clock.  Pure constructors/arithmetic (time.Duration,
// Time.Sub, time.Unix) are fine: they do not observe wall time.
var wallclockBanned = map[string]bool{
	"time.Now":       true,
	"time.Since":     true,
	"time.Until":     true,
	"time.Sleep":     true,
	"time.After":     true,
	"time.Tick":      true,
	"time.NewTimer":  true,
	"time.NewTicker": true,
	"time.AfterFunc": true,
}

// randAllowed are the math/rand constructors for explicitly seeded
// generators — the only sanctioned randomness in simulated code.
var randAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// coroutineFuncs start a coroutine, a second thread of control.  Like a
// go statement, they are allowed only in the scheduler, whose thread
// handoff is built on them.
var coroutineFuncs = map[string]bool{"iter.Pull": true, "iter.Pull2": true}

// sortFuncs order a slice after the fact, sanctioning an append inside
// a map iteration (collect-then-sort is the deterministic idiom).
var sortFuncs = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Stable": true, "slices.Sort": true, "slices.SortFunc": true,
	"slices.SortStableFunc": true,
}

// Simdeterminism returns the analyzer that enforces the simulation's
// determinism contract: bit-identical replay of BENCH_baseline.json
// requires that code in simulated packages never consults wall clocks,
// unseeded randomness, real concurrency, or map-iteration order.
func Simdeterminism(cfg *Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "simdeterminism",
		Doc: "enforce deterministic-replay invariants in simulated packages:\n" +
			"no wall clocks (time.Now/Since/...), no global math/rand, no real\n" +
			"goroutines/coroutines/channels/sync outside the scheduler, and no\n" +
			"order-sensitive iteration over maps",
		Run: func(pass *analysis.Pass) (interface{}, error) {
			if !contains(cfg.SimPackages, pass.Pkg.Path()) {
				return nil, nil
			}
			sched := contains(cfg.SchedulerPackages, pass.Pkg.Path())
			for _, file := range pass.Files {
				for _, decl := range file.Decls {
					fd, _ := decl.(*ast.FuncDecl)
					allowWall := fd != nil && contains(cfg.WallclockFuncs, declFuncName(pass.TypesInfo, fd))
					checkDeterminism(pass, decl, fd, sched, allowWall)
				}
			}
			return nil, nil
		},
	}
}

func checkDeterminism(pass *analysis.Pass, root ast.Node, enclosing *ast.FuncDecl, sched, allowWall bool) {
	info := pass.TypesInfo
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil {
				return true
			}
			name := fn.FullName()
			if wallclockBanned[name] && !allowWall {
				pass.Reportf(n.Pos(), "call to %s in simulated code: wall time breaks deterministic replay (route it through the sanctioned wallclock helper)", name)
			}
			if pkg := fn.Pkg(); pkg != nil &&
				(pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") &&
				fn.Type().(*types.Signature).Recv() == nil &&
				!randAllowed[fn.Name()] {
				pass.Reportf(n.Pos(), "call to global %s in simulated code: process-global randomness breaks deterministic replay (use a seeded rand.New(rand.NewSource(...)))", name)
			}
			if coroutineFuncs[name] && !sched {
				pass.Reportf(n.Pos(), "call to %s in simulated code: a coroutine is a second thread of control that bypasses the cooperative scheduler (use simt.Spawn/SpawnFrom)", name)
			}
		case *ast.GoStmt:
			if !sched {
				pass.Reportf(n.Pos(), "go statement in simulated code: real concurrency bypasses the cooperative scheduler (use simt.Spawn/SpawnFrom)")
			}
		case *ast.SendStmt:
			if !sched {
				pass.Reportf(n.Pos(), "channel send in simulated code: real channels bypass the cooperative scheduler")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !sched {
				pass.Reportf(n.Pos(), "channel receive in simulated code: real channels bypass the cooperative scheduler")
			}
		case *ast.SelectStmt:
			if !sched {
				pass.Reportf(n.Pos(), "select statement in simulated code: real channels bypass the cooperative scheduler")
			}
		case *ast.ChanType:
			if !sched {
				pass.Reportf(n.Pos(), "channel type in simulated code: real channels bypass the cooperative scheduler")
			}
		case *ast.SelectorExpr:
			if sched {
				return true
			}
			if id, ok := n.X.(*ast.Ident); ok {
				if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "sync" {
					pass.Reportf(n.Pos(), "sync.%s in simulated code: host synchronization bypasses the cooperative scheduler (use simt primitives)", n.Sel.Name)
				}
			}
		case *ast.RangeStmt:
			checkMapRange(pass, n, enclosing)
		}
		return true
	})
}

// checkMapRange flags iteration over a map whose body is
// order-sensitive: results, digests, or formatted output assembled in
// iteration order escape Go's randomized map ordering straight into
// scenario results and replay digests.  Order-independent bodies —
// counting, summing, writes keyed by the iteration variable, and
// collect-then-sort — are allowed.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, enclosing *ast.FuncDecl) {
	info := pass.TypesInfo
	t := info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	// A return inside a closure leaves the closure, not the enclosing
	// function, so the return rule must not fire there (sort comparators
	// are the canonical case).
	var lits []ast.Node
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, n)
		}
		return true
	})
	inLit := func(pos token.Pos) bool {
		for _, l := range lits {
			if pos >= l.Pos() && pos < l.End() {
				return true
			}
		}
		return false
	}
	var reason string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if r := orderSensitiveAssign(pass, rng, enclosing, n, lhs, i); r != "" {
					reason = r
					return false
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil {
				if r := orderSensitiveCall(fn); r != "" {
					reason = r
					return false
				}
			}
		case *ast.ReturnStmt:
			if inLit(n.Pos()) {
				return true
			}
			// Returning a value computed from the current element makes
			// "which element got returned" depend on iteration order.
			for _, res := range n.Results {
				ordered := false
				ast.Inspect(res, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil && within(obj.Pos(), rng.Pos(), rng.Body.Pos()) {
							ordered = true
						}
					}
					return !ordered
				})
				if ordered {
					reason = "returns a value derived from the iteration variable"
					return false
				}
			}
		}
		return true
	})
	if reason != "" {
		pass.Reportf(rng.For, "iteration over map with order-sensitive body (%s): map order is randomized and breaks deterministic replay", reason)
	}
}

// orderSensitiveAssign classifies one assignment target inside a map
// range body.  Index i selects the matching RHS when the assignment is
// 1:1.
func orderSensitiveAssign(pass *analysis.Pass, rng *ast.RangeStmt, enclosing *ast.FuncDecl, as *ast.AssignStmt, lhs ast.Expr, i int) string {
	info := pass.TypesInfo
	var rhs ast.Expr
	if len(as.Rhs) == len(as.Lhs) {
		rhs = as.Rhs[i]
	}
	switch l := lhs.(type) {
	case *ast.IndexExpr:
		// m[k] = v and s[k] = v are keyed by the expression, not by
		// iteration order.
		return ""
	case *ast.Ident:
		obj := info.Defs[l]
		if obj == nil {
			obj = info.Uses[l]
		}
		if obj == nil || within(obj.Pos(), rng.Pos(), rng.Body.End()) {
			return "" // loop-local variable
		}
		return classifyEscape(pass, rng, enclosing, obj, l, rhs, as)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[l]; ok {
			return classifyEscape(pass, rng, enclosing, sel.Obj(), l, rhs, as)
		}
	}
	return ""
}

// classifyEscape decides whether writing obj (declared outside the
// loop) in this form is order-sensitive.  Numeric/boolean accumulation
// commutes; slice appends and string building do not — unless the
// slice is sorted after the loop.
func classifyEscape(pass *analysis.Pass, rng *ast.RangeStmt, enclosing *ast.FuncDecl, obj types.Object, lhs ast.Expr, rhs ast.Expr, as *ast.AssignStmt) string {
	info := pass.TypesInfo
	t := info.TypeOf(lhs)
	if t == nil {
		return ""
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		if id, ok := lhs.(*ast.Ident); ok && sortedAfter(pass, rng, enclosing, info.ObjectOf(id)) {
			return ""
		}
		return "appends to a slice that outlives the loop without a post-loop sort"
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		if b.Info()&types.IsString != 0 {
			return "builds a string in iteration order"
		}
		if as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN ||
			as.Tok == token.OR_ASSIGN || as.Tok == token.XOR_ASSIGN ||
			as.Tok == token.AND_ASSIGN {
			return "" // commutative accumulation
		}
		if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
			// Plain overwrite: last iteration wins — order-dependent
			// unless the RHS ignores the loop variables entirely.
			if rhs != nil && usesLoopVars(info, rng, rhs) {
				return "overwrites an outer variable with a value derived from the iteration variable (last-write-wins depends on order)"
			}
		}
		return ""
	}
	return ""
}

// usesLoopVars reports whether e references the range statement's
// iteration variables.
func usesLoopVars(info *types.Info, rng *ast.RangeStmt, e ast.Expr) bool {
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj != nil && within(obj.Pos(), rng.Pos(), rng.Body.Pos()) {
			used = true
		}
		return !used
	})
	return used
}

// orderSensitiveCall flags formatting/encoding/hashing calls whose
// output concatenates per-element data in iteration order.
func orderSensitiveCall(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	switch {
	case pkg.Path() == "fmt":
		return "formats output with fmt." + fn.Name() + " inside the iteration"
	case pkg.Path() == "encoding/json":
		return "encodes JSON inside the iteration"
	case len(pkg.Path()) >= 4 && pkg.Path()[:4] == "hash":
		return "feeds a hash inside the iteration"
	}
	return ""
}

// sortedAfter reports whether obj is passed to a sort function after
// the range statement within the enclosing function — the sanctioned
// collect-then-sort idiom.
func sortedAfter(pass *analysis.Pass, rng *ast.RangeStmt, enclosing *ast.FuncDecl, obj types.Object) bool {
	if enclosing == nil || enclosing.Body == nil || obj == nil {
		return false
	}
	info := pass.TypesInfo
	found := false
	ast.Inspect(enclosing.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if !sortFuncs[fn.Pkg().Name()+"."+fn.Name()] {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.ObjectOf(id) == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// within reports pos in [lo, hi).
func within(pos, lo, hi token.Pos) bool { return pos >= lo && pos < hi }
