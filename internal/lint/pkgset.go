package lint

import (
	"go/types"
	"strings"
)

// enginePkgs are the determinism-critical packages: everything a seeded
// execution flows through on its way to a trace byte, plus the checker,
// whose violation order job records store and amacd-smoke diffs byte for
// byte. mapiter and wallclock apply here. cmd/, examples/, harness and rt
// are deliberately outside the set — amacbench timestamps its records with
// wall time and rt is the real-time runtime whose whole point is the wall
// clock.
var enginePkgs = []string{
	"amac/internal/sim",
	"amac/internal/mac",
	"amac/internal/core",
	"amac/internal/sched",
	"amac/internal/graph",
	"amac/internal/topology",
	"amac/internal/geom",
	"amac/internal/scenario",
	"amac/internal/jobs",
	"amac/internal/check",
}

// hotPkgs are the packages on the per-event path, where payload boxing is
// forbidden outside registered boxers and trace render (payloadbox).
// scenario and jobs are excluded: they consume finished runs, which is where
// Payload.Value belongs.
var hotPkgs = []string{
	"amac/internal/sim",
	"amac/internal/mac",
	"amac/internal/core",
	"amac/internal/sched",
}

func inPkgSet(set []string, path string) bool {
	for _, p := range set {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// isEnginePkg reports whether path is determinism-critical.
func isEnginePkg(path string) bool { return inPkgSet(enginePkgs, path) }

// isHotPkg reports whether path is on the per-event hot path.
func isHotPkg(path string) bool { return inPkgSet(hotPkgs, path) }

// isSimPkg reports whether path is the simulator core package (the owner of
// the pooled event structs and the Payload type).
func isSimPkg(path string) bool { return path == "amac/internal/sim" }

// simNamed reports whether t (after pointer stripping) is the named type
// pkg sim's name refers to, e.g. simNamed(t, "Payload") or simNamed(t,
// "event").
func simNamed(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && isSimPkg(obj.Pkg().Path())
}
