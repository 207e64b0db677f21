package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// simPackages are the packages whose behaviour must be a pure function
// of (config, seed): the simulator proper plus the pure-model packages
// it is built from. Here the full rule set applies — any wall-clock
// read, global RNG call, order-dependent map iteration, or multi-way
// select would break the nine fixed-seed reference outputs and the
// serial ≡ parallel ≡ resumed sweep guarantees.
var simPackages = []string{
	// named by the invariant audit
	"internal/pipeline", "internal/system", "internal/lsq", "internal/cache",
	"internal/coherence", "internal/consistency", "internal/litmus", "internal/fault",
	// pure-model dependencies with the same obligation
	"internal/bpred", "internal/config", "internal/core", "internal/deppred",
	"internal/energy", "internal/isa", "internal/prog", "internal/reuse",
	"internal/stats", "internal/vpred", "internal/workload",
}

// aggPackages aggregate simulator results. Their tables and JSON
// reports must also be reproducible (no map-order output, no global
// RNG), but measuring wall-clock time is their job (experiments) or
// they legitimately wait on it (the farm service's HTTP plumbing), so
// the time rules do not apply. The farm is here because its whole value
// proposition — content-addressed cell results shared across restarts —
// collapses if any map-order or global-RNG nondeterminism leaks into a
// cache key or a result fold.
var aggPackages = []string{
	"internal/experiments",
	"internal/farm", "internal/farm/cachekey",
}

// Deliberately out of scope: internal/par (worker pools need select
// and deadlines — determinism there is guaranteed by canonical-order
// folds, tested dynamically), internal/trace (wall-clock profiling
// metadata and IO), internal/analysis and internal/exitcode (not
// simulation code), and cmd/* + examples/* (drivers).

var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbid nondeterminism sources (wall-clock time, global math/rand, " +
		"unsorted map iteration, multi-way select) in simulator packages",
	Run: runDeterminism,
}

// bannedTimeFuncs are the package time functions that read the
// wall clock or create timers. Types (time.Duration) and pure
// constructors (time.Unix) are not flagged.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRandNames are the math/rand identifiers that do NOT consult
// the global generator: constructors for explicitly seeded streams and
// the type names themselves.
var allowedRandNames = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true,
	"PCG": true, "ChaCha8": true,
}

func pathMatches(pkgPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

func runDeterminism(pass *Pass) {
	full := pathMatches(pass.Pkg.Path, simPackages)
	agg := pathMatches(pass.Pkg.Path, aggPackages)
	if !full && !agg {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj := info.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "time":
					if full && bannedTimeFuncs[obj.Name()] {
						pass.Reportf(n.Pos(), "time.%s reads the wall clock; simulator packages must be a pure function of (config, seed) — derive timing from the cycle counter instead", obj.Name())
					}
				case "math/rand", "math/rand/v2":
					// Methods (r.Intn on a seeded *rand.Rand) are fine;
					// only package-level functions hit the global stream.
					fn, isFunc := obj.(*types.Func)
					if isFunc && fn.Type().(*types.Signature).Recv() == nil && !allowedRandNames[obj.Name()] {
						pass.Reportf(n.Pos(), "rand.%s uses the global generator, whose sequence is shared and seed-independent; use a seed-derived *rand.Rand or the splitmix64 pattern", obj.Name())
					}
				}
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
			case *ast.SelectStmt:
				if nclauses := len(n.Body.List); nclauses > 1 {
					pass.Reportf(n.Pos(), "select with %d cases resolves races nondeterministically; simulator packages must use deterministic control flow (single-case select is allowed)", nclauses)
				}
			}
			return true
		})
	}
}

// checkMapRange flags `for ... := range m` when m is a map, unless the
// loop body only appends to a slice that is sorted by the statement
// immediately following the loop — the one idiom that launders map
// order back into a deterministic sequence.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	t := pass.Pkg.Info.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if collectsIntoSortedSlice(pass, file, rng) {
		return
	}
	pass.Reportf(rng.Pos(), "iteration over map %s has nondeterministic order; collect keys into a slice and sort, or iterate a canonical index", exprString(rng.X))
}

// collectsIntoSortedSlice recognizes the allowed pattern:
//
//	for k := range m { s = append(s, k) }
//	sort.Slice(s, ...)        // or sort.Strings/Ints/..., slices.Sort*
//
// The body may only append to a single target (optionally under `if`
// filters — filtering is order-independent once sorted), and the
// statement immediately after the range in the enclosing block must be
// a recognized sort whose first argument mentions that target.
func collectsIntoSortedSlice(pass *Pass, file *ast.File, rng *ast.RangeStmt) bool {
	target := ""
	if !appendOnlyStmts(pass, rng.Body.List, &target) || target == "" {
		return false
	}
	next := nextStmt(file, rng)
	return next != nil && isSortOf(pass, next, target)
}

// appendOnlyStmts reports whether every statement is an append to one
// shared target, possibly nested under else-less if filters.
func appendOnlyStmts(pass *Pass, stmts []ast.Stmt, target *string) bool {
	if len(stmts) == 0 {
		return false
	}
	for _, stmt := range stmts {
		if ifs, ok := stmt.(*ast.IfStmt); ok && ifs.Else == nil {
			if !appendOnlyStmts(pass, ifs.Body.List, target) {
				return false
			}
			continue
		}
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 ||
			(as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) || len(call.Args) < 2 {
			return false
		}
		lhs := exprString(as.Lhs[0])
		if exprString(call.Args[0]) != lhs {
			return false
		}
		if *target == "" {
			*target = lhs
		} else if *target != lhs {
			return false
		}
	}
	return true
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// nextStmt finds the statement immediately following n in its
// enclosing block (or case/comm clause body).
func nextStmt(file *ast.File, n ast.Stmt) ast.Stmt {
	var out ast.Stmt
	ast.Inspect(file, func(node ast.Node) bool {
		if out != nil {
			return false
		}
		var list []ast.Stmt
		switch node := node.(type) {
		case *ast.BlockStmt:
			list = node.List
		case *ast.CaseClause:
			list = node.Body
		case *ast.CommClause:
			list = node.Body
		default:
			return true
		}
		for i, s := range list {
			if s == n && i+1 < len(list) {
				out = list[i+1]
				return false
			}
		}
		return true
	})
	return out
}

// isSortOf reports whether stmt is a call to a recognized sorting
// function whose first argument mentions target.
func isSortOf(pass *Pass, stmt ast.Stmt, target string) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.Pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sort", "slices":
	default:
		return false
	}
	if !strings.HasPrefix(obj.Name(), "Sort") && !strings.HasPrefix(obj.Name(), "Slice") &&
		obj.Name() != "Strings" && obj.Name() != "Ints" && obj.Name() != "Float64s" {
		return false
	}
	// sort.Sort(byX(s)) wraps the slice in a conversion; look for the
	// target anywhere inside the first argument.
	return strings.Contains(exprString(call.Args[0]), target)
}
