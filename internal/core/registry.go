package core

import (
	"fmt"
	"sort"

	"amac/internal/mac"
	"amac/internal/sim"
	"amac/internal/topology"
)

// Algorithm is one registered MMB algorithm: a fleet factory plus the model
// variant it requires and its scheduling defaults. Registering an algorithm
// makes it addressable by name from scenario specs and command-line tools.
type Algorithm struct {
	// Name keys the registry.
	Name string
	// Mode is the abstract MAC layer variant the algorithm requires.
	Mode mac.Mode
	// DefaultScheduler names the scheduler used when a spec leaves the
	// choice open.
	DefaultScheduler string
	// Params lists the parameter names NewFleet accepts.
	Params []string
	// NewFleet builds one automaton per node for a k-message workload on d.
	// Automata are stateful: a fresh fleet is built per execution, or a
	// pooled one is adapted via Refit and mac.Resettable.
	NewFleet func(d *topology.Dual, k int, p topology.Params) ([]mac.Automaton, error)
	// Refit, when non-nil, adapts a pooled fleet previously built by
	// NewFleet for a same-size network to a new draw (d, k, p): it rebinds
	// whatever per-run configuration NewFleet derived from its arguments
	// (e.g. FMMB's diameter-dependent schedule) without reallocating the
	// automata, and reports whether the fleet could be adapted. The caller
	// resets each automaton afterwards; Refit + Reset must be observably
	// identical to a fresh NewFleet. A nil Refit means fleets of this
	// algorithm carry no per-run configuration, so Reset alone suffices.
	Refit func(fleet []mac.Automaton, d *topology.Dual, k int, p topology.Params) bool
	// Horizon returns the execution horizon for a k-message workload, or 0
	// to select the runner's generic default.
	Horizon func(d *topology.Dual, k int, fprog sim.Time, p topology.Params) sim.Time
	// StepLimit returns the simulation step limit, or 0 for the runner's
	// generic default.
	StepLimit uint64
}

var algRegistry = map[string]Algorithm{}

// RegisterAlgorithm adds an algorithm to the registry. It panics on a
// duplicate or unnamed registration (a wiring bug, caught at init).
func RegisterAlgorithm(a Algorithm) {
	if a.Name == "" || a.NewFleet == nil {
		panic("core: algorithm registration needs Name and NewFleet")
	}
	if _, dup := algRegistry[a.Name]; dup {
		panic(fmt.Sprintf("core: duplicate registration of algorithm %q", a.Name))
	}
	algRegistry[a.Name] = a
}

// LookupAlgorithm returns the named algorithm.
func LookupAlgorithm(name string) (Algorithm, bool) {
	a, ok := algRegistry[name]
	return a, ok
}

// AlgorithmNames returns the registered algorithm names, sorted.
func AlgorithmNames() []string {
	out := make([]string, 0, len(algRegistry))
	for n := range algRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ValidateAlgorithmSpec checks that name is registered and every parameter
// is one the algorithm accepts.
func ValidateAlgorithmSpec(name string, p topology.Params) error {
	a, ok := algRegistry[name]
	if !ok {
		return fmt.Errorf("core: unknown algorithm %q (registered: %v)", name, AlgorithmNames())
	}
	accepted := make(map[string]bool, len(a.Params))
	for _, k := range a.Params {
		accepted[k] = true
	}
	// Sorted so the reported parameter is the same on every run: which key a
	// map range sees first is randomized, and validation errors end up in
	// job records and test expectations.
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !accepted[k] {
			return fmt.Errorf("core: algorithm %q does not accept parameter %q", name, k)
		}
	}
	return nil
}

// fmmbConfigFromParams resolves an FMMBConfig for a k-message workload on d.
// The diameter bound defaults to the diameter of G — exact below
// graph.ExactDiameterCutoff (simulated nodes receive it as an input,
// matching the paper's assumption), sampled above it, where the exact
// all-sources computation would dwarf the run itself. Pass the "d"
// parameter to pin the bound on large networks whose sampled estimate
// proves too tight.
func fmmbConfigFromParams(d *topology.Dual, k int, p topology.Params) FMMBConfig {
	return FMMBConfig{
		N:             d.N(),
		K:             k,
		D:             p.Int("d", d.G.SampledDiameter()),
		C:             p.Float("c", 1.6),
		GatherPeriods: p.Int("gather-periods", 0),
		ActiveProb:    p.Float("active-prob", 0),
		SpreadPeriods: p.Int("spread-periods", 0),
		SpreadPhases:  p.Int("spread-phases", 0),
	}
}

func init() {
	RegisterAlgorithm(Algorithm{
		Name:             "bmmb",
		Mode:             mac.Standard,
		DefaultScheduler: "sync",
		NewFleet: func(d *topology.Dual, k int, p topology.Params) ([]mac.Automaton, error) {
			return NewBMMBFleet(d.N()), nil
		},
	})
	RegisterAlgorithm(Algorithm{
		Name:             "fmmb",
		Mode:             mac.Enhanced,
		DefaultScheduler: "slot",
		Params:           []string{"c", "d", "gather-periods", "active-prob", "spread-periods", "spread-phases"},
		NewFleet: func(d *topology.Dual, k int, p topology.Params) ([]mac.Automaton, error) {
			if k < 1 {
				return nil, fmt.Errorf("core: fmmb needs k >= 1 messages, got %d", k)
			}
			return NewFMMBFleet(d.N(), fmmbConfigFromParams(d, k, p)), nil
		},
		Refit: func(fleet []mac.Automaton, d *topology.Dual, k int, p topology.Params) bool {
			if k < 1 {
				return false
			}
			cfg := fmmbConfigFromParams(d, k, p)
			for _, a := range fleet {
				f, ok := a.(*FMMB)
				if !ok {
					return false
				}
				f.Reconfigure(cfg)
			}
			return true
		},
		Horizon: func(d *topology.Dual, k int, fprog sim.Time, p topology.Params) sim.Time {
			return sim.Time(fmmbConfigFromParams(d, k, p).Rounds()+2) * fprog
		},
		StepLimit: 1 << 62,
	})
}
