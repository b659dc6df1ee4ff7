package lint

import (
	"go/ast"
	"go/types"
)

// WallClock forbids ambient-state reads in engine packages: wall-clock time
// (time.Now/Since/Until), the process-global math/rand generators, and
// environment variables. Engine code must take all time from the simulator's
// virtual clock and all randomness from the engine's seeded streams
// (sim.Engine.Fork / Reseed) so that a (spec, seed) pair fully
// determines the execution; configuration flows through explicit structs,
// never the environment. Constructing local generators (rand.New,
// rand.NewSource, ...) and calling methods on a *rand.Rand are fine — that
// is exactly the seeded-stream discipline.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbids time.Now, global math/rand functions and os.Getenv in engine packages",
	Run:  runWallClock,
}

func runWallClock(pass *Pass) error {
	if !isEnginePkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil {
				return true
			}
			if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. on a seeded *rand.Rand) are fine
			}
			switch obj.Pkg().Path() {
			case "time":
				switch obj.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(sel.Pos(), "wall-clock read time.%s in engine package; use the simulator's virtual clock", obj.Name())
				}
			case "os":
				switch obj.Name() {
				case "Getenv", "LookupEnv", "Environ":
					pass.Reportf(sel.Pos(), "environment read os.%s in engine package; thread configuration through explicit structs", obj.Name())
				}
			case "math/rand", "math/rand/v2":
				switch obj.Name() {
				case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
					// Constructors of local, seedable generators.
				default:
					pass.Reportf(sel.Pos(), "global %s.%s draws from process-global state; draw from the engine's seeded stream (Engine.Rand/Fork)", obj.Pkg().Path(), obj.Name())
				}
			}
			return true
		})
	}
	return nil
}
