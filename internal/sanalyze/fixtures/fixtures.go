// Package fixtures holds small SAN models with deliberately seeded
// defects, one positive (defective) and one negative (clean) fixture per
// check, in two registries. All covers the Analyze checks on pure-arc
// nets: an unbounded place, a reachable deadlock, a dead activity, and a
// broken conservation law. Lint covers the nine sanalyze.Lint shape
// checks. The fixtures unit-test the verifier, pin its output through
// golden files in internal/sanalyze/testdata and internal/vet/testdata,
// and let `vcpusim vet -fixtures` demonstrate every check firing.
//
// The models are analyzed statically and never simulated — several of the
// defective ones would livelock or fail immediately if run.
package fixtures

import (
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sanalyze"
)

// Fixture is one named model with its expected analyzer outcome.
type Fixture struct {
	// Name identifies the fixture; "-bad" fixtures seed a defect, "-ok"
	// fixtures are the matching clean variant.
	Name string
	// Expect is the exact set of check identifiers Analyze (for All) or
	// Lint (for Lint) must report, order-insensitive with duplicates
	// collapsed; empty means the model must verify clean.
	Expect []string
	// Disabled is passed to the analysis as sanalyze.Options.Disabled,
	// mirroring a fault plan arming dormant activities.
	Disabled []string
	// Build constructs the model.
	Build func() *san.Model
}

// All returns every fixture, defective and clean, in a fixed order.
func All() []Fixture {
	return []Fixture{
		{
			Name: "unbounded-place-bad",
			Expect: []string{
				sanalyze.CheckUnbounded,
				// The growth cut leaves reachability incomplete, so the
				// pumped place also (correctly) lacks a bound certificate.
				sanalyze.CheckBoundUnproven,
			},
			Build: func() *san.Model {
				m := san.NewModel("unbounded_place_bad")
				s := m.Sub("s")
				buf := s.Place("buf", 0)
				// A producer with no consumer: every firing pumps buf.
				s.TimedActivity("produce", rng.Exponential{Rate: 1}).
					OutputArc(buf, 1)
				return m
			},
		},
		{
			Name: "unbounded-place-ok",
			Build: func() *san.Model {
				m := san.NewModel("unbounded_place_ok")
				s := m.Sub("s")
				idle := s.Place("idle", 1)
				busy := s.Place("busy", 0)
				s.TimedActivity("produce", rng.Exponential{Rate: 1}).
					InputArc(idle, 1).OutputArc(busy, 1)
				s.TimedActivity("release", rng.Exponential{Rate: 1}).
					InputArc(busy, 1).OutputArc(idle, 1)
				return m
			},
		},
		{
			Name:   "deadlock-bad",
			Expect: []string{sanalyze.CheckDeadlock},
			Build: func() *san.Model {
				m := san.NewModel("deadlock_bad")
				s := m.Sub("s")
				fuel := s.Place("fuel", 3)
				ash := s.Place("ash", 0)
				// fuel is consumed and never replenished: after three
				// firings no activity is enabled.
				s.TimedActivity("burn", rng.Exponential{Rate: 1}).
					InputArc(fuel, 1).OutputArc(ash, 1)
				return m
			},
		},
		{
			Name: "deadlock-ok",
			Build: func() *san.Model {
				m := san.NewModel("deadlock_ok")
				s := m.Sub("s")
				fuel := s.Place("fuel", 3)
				ash := s.Place("ash", 0)
				s.TimedActivity("burn", rng.Exponential{Rate: 1}).
					InputArc(fuel, 1).OutputArc(ash, 1)
				s.TimedActivity("refine", rng.Exponential{Rate: 1}).
					InputArc(ash, 1).OutputArc(fuel, 1)
				return m
			},
		},
		{
			Name:   "dead-activity-bad",
			Expect: []string{sanalyze.CheckDeadActivity},
			Build: func() *san.Model {
				m := san.NewModel("dead_activity_bad")
				s := m.Sub("s")
				idle := s.Place("idle", 1)
				busy := s.Place("busy", 0)
				never := s.Place("never", 0)
				s.TimedActivity("produce", rng.Exponential{Rate: 1}).
					InputArc(idle, 1).OutputArc(busy, 1)
				s.TimedActivity("release", rng.Exponential{Rate: 1}).
					InputArc(busy, 1).OutputArc(idle, 1)
				// never is never marked, so audit is enabled in no
				// reachable marking.
				s.InstantActivity("audit").
					InputArc(never, 1).OutputArc(never, 1)
				return m
			},
		},
		{
			Name: "dead-activity-ok",
			Build: func() *san.Model {
				m := san.NewModel("dead_activity_ok")
				s := m.Sub("s")
				idle := s.Place("idle", 1)
				busy := s.Place("busy", 0)
				flag := s.Place("flag", 0)
				s.TimedActivity("produce", rng.Exponential{Rate: 1}).
					InputArc(idle, 1).OutputArc(busy, 1)
				s.TimedActivity("release", rng.Exponential{Rate: 1}).
					InputArc(busy, 1).OutputArc(idle, 1)
				// raise marks flag; audit drains it during stabilization,
				// so both fire and flag earns a drain certificate.
				s.TimedActivity("raise", rng.Exponential{Rate: 1}).
					OutputArc(flag, 1)
				s.InstantActivity("audit").
					InputArc(flag, 1)
				return m
			},
		},
		{
			Name:   "conservation-bad",
			Expect: []string{sanalyze.CheckConservation},
			Build: func() *san.Model {
				m := san.NewModel("conservation_bad")
				s := m.Sub("s")
				a := s.Place("a", 2)
				b := s.Place("b", 0)
				run := s.Place("run", 1)
				// move duplicates tokens: a+b is declared conserved but
				// each firing grows the sum by one.
				s.TimedActivity("move", rng.Exponential{Rate: 1}).
					InputArc(a, 1).OutputArc(b, 2)
				s.TimedActivity("tick", rng.Exponential{Rate: 1}).
					InputArc(run, 1).OutputArc(run, 1)
				m.DeclareConservation("tokens",
					san.PlaceWeight{Place: a.Name(), Weight: 1},
					san.PlaceWeight{Place: b.Name(), Weight: 1})
				return m
			},
		},
		{
			Name: "conservation-ok",
			Build: func() *san.Model {
				m := san.NewModel("conservation_ok")
				s := m.Sub("s")
				a := s.Place("a", 2)
				b := s.Place("b", 0)
				run := s.Place("run", 1)
				s.TimedActivity("move", rng.Exponential{Rate: 1}).
					InputArc(a, 1).OutputArc(b, 1)
				s.TimedActivity("tick", rng.Exponential{Rate: 1}).
					InputArc(run, 1).OutputArc(run, 1)
				m.DeclareConservation("tokens",
					san.PlaceWeight{Place: a.Name(), Weight: 1},
					san.PlaceWeight{Place: b.Name(), Weight: 1})
				return m
			},
		},
		{
			Name:     "disabled-not-dead",
			Disabled: []string{"s/backup"},
			Build: func() *san.Model {
				m := san.NewModel("disabled_not_dead")
				s := m.Sub("s")
				idle := s.Place("idle", 1)
				busy := s.Place("busy", 0)
				s.TimedActivity("produce", rng.Exponential{Rate: 1}).
					InputArc(idle, 1).OutputArc(busy, 1)
				s.TimedActivity("release", rng.Exponential{Rate: 1}).
					InputArc(busy, 1).OutputArc(idle, 1)
				// backup would fire when enabled, but the run disables it
				// (a fault plan keeping an injector dormant): reachability
				// must exclude it rather than call it dead.
				s.TimedActivity("backup", rng.Exponential{Rate: 1}).
					InputArc(busy, 1).OutputArc(idle, 1)
				return m
			},
		},
	}
}
