package sched

import (
	"fmt"
	"sort"

	"amac/internal/mac"
	"amac/internal/sim"
	"amac/internal/topology"
)

// Env is the execution context a scheduler factory may consult: the network,
// the topology construction artifact (for adversarial schedules that are
// defined against a specific construction, e.g. *topology.ParallelLinesC),
// the workload's broadcast payloads in arrival order (for schedules that
// track specific messages), and the model constants (so factories can
// range-check timing parameters up front instead of panicking in Attach).
// Zero model constants skip those checks.
type Env struct {
	Dual     *topology.Dual
	Artifact any
	Payloads []sim.Payload
	Fprog    sim.Time
	Fack     sim.Time
}

// Factory builds a fresh scheduler instance for one execution. Schedulers
// are stateful, so a new one must be built per run.
type Factory func(env Env, p topology.Params) (mac.Scheduler, error)

type schedRegistration struct {
	params  map[string]bool
	factory Factory
}

var schedRegistry = map[string]schedRegistration{}

// Register adds a named scheduler family to the registry, declaring the
// parameter names it accepts. It panics on duplicate names.
func Register(name string, params []string, f Factory) {
	if _, dup := schedRegistry[name]; dup {
		panic(fmt.Sprintf("sched: duplicate registration of %q", name))
	}
	ps := make(map[string]bool, len(params))
	for _, p := range params {
		ps[p] = true
	}
	schedRegistry[name] = schedRegistration{params: ps, factory: f}
}

// Names returns the registered scheduler names, sorted.
func Names() []string {
	out := make([]string, 0, len(schedRegistry))
	for n := range schedRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ValidateSpec checks that name is registered and every parameter is one the
// scheduler accepts, without building anything.
func ValidateSpec(name string, p topology.Params) error {
	reg, ok := schedRegistry[name]
	if !ok {
		return fmt.Errorf("sched: unknown scheduler %q (registered: %v)", name, Names())
	}
	if k, ok := p.Unknown(func(k string) bool { return reg.params[k] }); ok {
		return fmt.Errorf("sched: %q does not accept parameter %q", name, k)
	}
	return nil
}

// Build constructs a fresh scheduler of the named family.
func Build(name string, env Env, p topology.Params) (mac.Scheduler, error) {
	if err := ValidateSpec(name, p); err != nil {
		return nil, err
	}
	return schedRegistry[name].factory(env, p)
}

// relParams are the reliability-policy parameters shared by the schedulers
// that consult a Reliability: "rel" selects Bernoulli(rel) on the G′\G
// links; "flaky-up"/"flaky-down" select the bursty Flaky policy instead.
// Absent, unreliable links never fire.
var relParams = []string{"rel", "flaky-up", "flaky-down"}

// relFromParams resolves the shared reliability parameters.
func relFromParams(p topology.Params) (Reliability, error) {
	flaky := p.Has("flaky-up") || p.Has("flaky-down")
	if flaky && p.Has("rel") {
		return nil, fmt.Errorf("sched: rel and flaky-up/flaky-down are mutually exclusive")
	}
	if flaky {
		return &Flaky{
			MeanUp:   sim.Time(p.Int64("flaky-up", 0)),
			MeanDown: sim.Time(p.Int64("flaky-down", 0)),
		}, nil
	}
	if !p.Has("rel") {
		return nil, nil
	}
	prob := p.Float("rel", 0)
	if prob < 0 || prob > 1 {
		return nil, fmt.Errorf("sched: rel must be a probability in [0, 1], got %v", prob)
	}
	return Bernoulli{P: prob}, nil
}

func init() {
	Register("sync", append([]string{"recv-delay", "grey-delay", "ack-delay"}, relParams...),
		func(env Env, p topology.Params) (mac.Scheduler, error) {
			rel, err := relFromParams(p)
			if err != nil {
				return nil, err
			}
			s := &Sync{
				RecvDelay: sim.Time(p.Int64("recv-delay", 0)),
				GreyDelay: sim.Time(p.Int64("grey-delay", 0)),
				AckDelay:  sim.Time(p.Int64("ack-delay", 0)),
				Rel:       rel,
			}
			if env.Fprog > 0 && env.Fack > 0 {
				// Run Attach's own range checks up front so a bad scenario
				// file errors here instead of panicking there.
				if _, _, _, err := s.resolveDelays(env.Fprog, env.Fack); err != nil {
					return nil, err
				}
			}
			return s, nil
		})
	Register("random", relParams, func(env Env, p topology.Params) (mac.Scheduler, error) {
		rel, err := relFromParams(p)
		if err != nil {
			return nil, err
		}
		return &Random{Rel: rel}, nil
	})
	Register("contention", relParams, func(env Env, p topology.Params) (mac.Scheduler, error) {
		rel, err := relFromParams(p)
		if err != nil {
			return nil, err
		}
		return &Contention{Rel: rel}, nil
	})
	Register("slot", []string{"grey-p"}, func(env Env, p topology.Params) (mac.Scheduler, error) {
		return &Slot{GreyP: p.Float("grey-p", 0)}, nil
	})
	Register("adversary", nil, func(env Env, p topology.Params) (mac.Scheduler, error) {
		net, ok := env.Artifact.(*topology.ParallelLinesC)
		if !ok {
			return nil, fmt.Errorf("sched: adversary requires the parallel-lines topology (artifact is %T)", env.Artifact)
		}
		if len(env.Payloads) != 2 {
			return nil, fmt.Errorf("sched: adversary tracks exactly 2 messages, workload has %d", len(env.Payloads))
		}
		return &ParallelLines{
			Net: net,
			M0:  env.Payloads[0],
			M1:  env.Payloads[1],
		}, nil
	})
}
