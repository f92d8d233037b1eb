package checks

import (
	"go/ast"
	"go/token"
	"sort"

	"repro/internal/analysis"
)

// NonDeterm forbids the three nondeterminism sources that break the
// byte-identical-schedules contract inside planner and executor
// packages:
//
//   - wall clocks (time.Now / time.Since / time.Until) — solver
//     decisions must depend only on inputs; wall time belongs to the
//     obs layer or an injected clock (degrade.Options.Clock);
//   - the unseeded global math/rand source — randomized planners take
//     an explicit seeded *rand.Rand (rng.New(seed), split per worker
//     with parallel.SplitSeed);
//   - raw `go` statements — goroutine completion order is
//     nondeterministic, so ad-hoc result collection reorders output;
//     parallel.ForEach (per-index result slots, atomic hand-out) is
//     the sanctioned fan-out pattern.
//
// The scope is timePkgs: the planners plus the executors (sim, des)
// and the audit oracle, so a private worker pool cannot grow back in
// an executor.
var NonDeterm = &analysis.Analyzer{
	Name: "nondeterm",
	Doc: "forbids time.Now, the unseeded global math/rand source, and raw " +
		"goroutines in solver packages; use an injected clock, a seeded " +
		"*rand.Rand, and parallel.ForEach",
	Scope: func(pkgPath string) bool { return underAny(pkgPath, timePkgs) },
	Run:   runNonDeterm,
}

// wallClockFuncs are the time package's wall-clock reads.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// globalRandFuncs are the math/rand package-level functions backed by
// the process-global, unseeded source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

func runNonDeterm(pass *analysis.Pass) {
	// The Uses table is a map; sort the positions so reports are
	// deterministic (the driver re-sorts, but fixtures compare
	// per-package output directly).
	type finding struct {
		pos token.Pos
		msg string
	}
	var found []finding
	for id, obj := range pass.Pkg.Info.Uses {
		if obj == nil || obj.Pkg() == nil {
			continue
		}
		switch obj.Pkg().Path() {
		case "time":
			if wallClockFuncs[obj.Name()] {
				found = append(found, finding{id.Pos(),
					"time." + obj.Name() + " reads the wall clock in a solver package; inject a clock (cf. degrade.Options.Clock) or move timing to the obs layer"})
			}
		case "math/rand", "math/rand/v2":
			// Package-level functions only: methods on a seeded
			// *rand.Rand live in the same package but have no parent
			// scope, and they are exactly the sanctioned alternative.
			if globalRandFuncs[obj.Name()] && obj.Parent() == obj.Pkg().Scope() {
				found = append(found, finding{id.Pos(),
					"rand." + obj.Name() + " draws from the unseeded global source; construct rng.New(seed) and thread it (parallel.SplitSeed per worker)"})
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	for _, f := range found {
		pass.Reportf(f.pos, "%s", f.msg)
	}

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"raw goroutine in a solver package: completion order is nondeterministic; use parallel.ForEach (per-index result slots) instead")
			}
			return true
		})
	}
}
