package lint

import (
	"go/ast"
)

// Detlint forbids wall-clock time and unseeded math/rand. The repo's
// correctness story is deterministic virtual time: every reported metric
// is pinned byte-identical by a committed golden, which only holds if the
// simulation packages never consult the wall clock or a global random
// source. Outside the deterministic core (daemons, bench harnesses) wall
// clock is legitimate but must be justified with a //splint:wallclock
// directive, so each exemption is a reviewed decision, not an accident.
var Detlint = &Analyzer{
	Name:      "detlint",
	Doc:       "forbids wall-clock time and unseeded math/rand; deterministic-simulation packages must use virtual time (simtime) and seeded rand.New sources",
	Directive: "wallclock",
	Run:       runDetlint,
}

// deterministicPkgs are the packages whose behaviour feeds the
// byte-identical drift gates. Matched by path segment so the fixture
// trees under testdata scope the same way the real tree does.
var deterministicPkgs = map[string]bool{
	"netsim":      true,
	"eventq":      true,
	"simtime":     true,
	"analyzer":    true,
	"store":       true,
	"pointer":     true,
	"hostagent":   true,
	"switchagent": true,
	"experiments": true,
	"trace":       true,
}

// wallClockFuncs are the time package entry points that read or wait on
// the wall clock. Constructors like time.Duration arithmetic and
// time.Unix (pure conversion) are fine.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// seededRandFuncs are the math/rand package-level functions that do NOT
// draw from the global (unseeded) source: constructors for explicit
// sources a caller seeds deterministically.
var seededRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // takes a *Rand the caller already seeded
}

func runDetlint(pass *Pass) error {
	deterministic := pkgPathHasSegment(pass.Pkg.Path(), deterministicPkgs)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			switch funcPkgPath(fn) {
			case "time":
				if wallClockFuncs[fn.Name()] && recvTypeName(fn) == "" {
					if deterministic {
						pass.Reportf(call.Pos(), "time.%s reads the wall clock inside a deterministic-simulation package; use virtual time (simtime/eventq) or annotate //splint:wallclock <reason>", fn.Name())
					} else {
						pass.Reportf(call.Pos(), "time.%s is wall clock; justify with //splint:wallclock <reason> (drift-gated metrics must never depend on it)", fn.Name())
					}
				}
			case "math/rand", "math/rand/v2":
				if recvTypeName(fn) != "" {
					return true // methods on an explicit *rand.Rand are seeded by construction
				}
				if !seededRandFuncs[fn.Name()] {
					pass.Reportf(call.Pos(), "rand.%s draws from the global math/rand source; use rand.New(rand.NewSource(seed)) so runs are reproducible", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
