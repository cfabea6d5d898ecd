package fixtures

import (
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sanalyze"
)

// Lint returns the fixture pairs for sanalyze.Lint, one defective and
// one clean fixture per lint check, in a fixed order.
func Lint() []Fixture {
	return []Fixture{
		{
			Name:   "case-weights-bad",
			Expect: []string{sanalyze.CheckCaseWeights},
			Build: func() *san.Model {
				m, s, p := base("case_weights_bad")
				act := s.TimedActivity("act", rng.Exponential{Rate: 1})
				act.InputArc(p, 1)
				act.OutputArc(p, 1)
				act.AddCase(weight(0.3), func() {})
				act.AddCase(weight(0.5), func() {}) // sums to 0.8, not 1
				return m
			},
		},
		{
			Name: "case-weights-ok",
			Build: func() *san.Model {
				m, s, p := base("case_weights_ok")
				act := s.TimedActivity("act", rng.Exponential{Rate: 1})
				act.InputArc(p, 1)
				act.OutputArc(p, 1)
				act.AddCase(weight(0.3), func() {})
				act.AddCase(weight(0.7), func() {})
				return m
			},
		},
		{
			Name:   "unknown-link-bad",
			Expect: []string{sanalyze.CheckUnknownLink},
			Build: func() *san.Model {
				m, s, p := base("unknown_link_bad")
				act := cycler(s, p)
				act.Link(san.LinkInput, "s/no_such_place") // typo'd place name
				return m
			},
		},
		{
			Name: "unknown-link-ok",
			Build: func() *san.Model {
				m, s, p := base("unknown_link_ok")
				act := cycler(s, p)
				act.Link(san.LinkInput, p.Name())
				return m
			},
		},
		{
			Name:   "never-read-bad",
			Expect: []string{sanalyze.CheckNeverRead},
			Build: func() *san.Model {
				m, s, p := base("never_read_bad")
				sink := s.Place("sink", 0)
				act := cycler(s, p)
				act.OutputArc(sink, 1) // tokens accumulate, nothing reads them
				return m
			},
		},
		{
			Name: "never-read-ok",
			Build: func() *san.Model {
				m, s, p := base("never_read_ok")
				sink := s.Place("sink", 0)
				act := cycler(s, p)
				act.OutputArc(sink, 1)
				drain := s.TimedActivity("drain", rng.Exponential{Rate: 1})
				drain.InputArc(sink, 1)
				return m
			},
		},
		{
			Name: "never-written-bad",
			// The initially empty, never-produced place also makes its
			// consumer structurally dead; both findings are expected.
			Expect: []string{sanalyze.CheckNeverWritten, sanalyze.CheckDeadActivity},
			Build: func() *san.Model {
				m, s, p := base("never_written_bad")
				cycler(s, p)
				empty := s.Place("empty", 0)
				starved := s.TimedActivity("starved", rng.Exponential{Rate: 1})
				starved.InputArc(empty, 1) // no activity ever writes empty
				return m
			},
		},
		{
			Name: "never-written-ok",
			Build: func() *san.Model {
				m, s, p := base("never_written_ok")
				cycler(s, p)
				stocked := s.Place("stocked", 3) // initial tokens cover the reads
				consumer := s.TimedActivity("consumer", rng.Exponential{Rate: 1})
				consumer.InputArc(stocked, 1)
				return m
			},
		},
		{
			Name:   "dead-activity-bad",
			Expect: []string{sanalyze.CheckDeadActivity},
			Build: func() *san.Model {
				// Chicken-and-egg: ping needs a token in a (produced only
				// by pong), pong needs a token in b (produced only by
				// ping); both start empty, so neither can ever fire.
				m := san.NewModel("dead_activity_bad")
				s := m.Sub("s")
				pa := s.Place("a", 0)
				pb := s.Place("b", 0)
				live := s.Place("live", 1)
				cycler(s, live)
				ping := s.TimedActivity("ping", rng.Exponential{Rate: 1})
				ping.InputArc(pa, 1)
				ping.OutputArc(pb, 1)
				pong := s.TimedActivity("pong", rng.Exponential{Rate: 1})
				pong.InputArc(pb, 1)
				pong.OutputArc(pa, 1)
				return m
			},
		},
		{
			Name: "dead-activity-ok",
			Build: func() *san.Model {
				// Same shape, but a starts marked: ping fires, feeding
				// pong, which feeds ping again.
				m := san.NewModel("dead_activity_ok")
				s := m.Sub("s")
				pa := s.Place("a", 1)
				pb := s.Place("b", 0)
				live := s.Place("live", 1)
				cycler(s, live)
				ping := s.TimedActivity("ping", rng.Exponential{Rate: 1})
				ping.InputArc(pa, 1)
				ping.OutputArc(pb, 1)
				pong := s.TimedActivity("pong", rng.Exponential{Rate: 1})
				pong.InputArc(pb, 1)
				pong.OutputArc(pa, 1)
				return m
			},
		},
		{
			Name:   "instant-cycle-bad",
			Expect: []string{sanalyze.CheckInstantCycle},
			Build: func() *san.Model {
				// Two instantaneous activities pass one token back and
				// forth; stabilization at t=0 would never terminate.
				m := san.NewModel("instant_cycle_bad")
				s := m.Sub("s")
				pa := s.Place("a", 1)
				pb := s.Place("b", 0)
				fwd := s.InstantActivity("fwd")
				fwd.InputArc(pa, 1)
				fwd.OutputArc(pb, 1)
				back := s.InstantActivity("back")
				back.InputArc(pb, 1)
				back.OutputArc(pa, 1)
				return m
			},
		},
		{
			Name: "instant-cycle-ok",
			Build: func() *san.Model {
				// The return edge is a timed activity, so every
				// stabilization pass terminates and time advances between
				// round trips.
				m := san.NewModel("instant_cycle_ok")
				s := m.Sub("s")
				pa := s.Place("a", 1)
				pb := s.Place("b", 0)
				fwd := s.InstantActivity("fwd")
				fwd.InputArc(pa, 1)
				fwd.OutputArc(pb, 1)
				back := s.TimedActivity("back", rng.Exponential{Rate: 1})
				back.InputArc(pb, 1)
				back.OutputArc(pa, 1)
				return m
			},
		},
		{
			Name:   "unshared-join-bad",
			Expect: []string{sanalyze.CheckUnsharedJoin},
			Build: func() *san.Model {
				// An activity in submodel s2 consumes a place declared
				// only in s1 — the Join was never recorded.
				m := san.NewModel("unshared_join_bad")
				s1 := m.Sub("s1")
				s2 := m.Sub("s2")
				shared := s1.Place("shared", 1)
				cycler(s1, shared)
				poacher := s2.TimedActivity("poacher", rng.Exponential{Rate: 1})
				poacher.InputArc(shared, 1)
				return m
			},
		},
		{
			Name: "unshared-join-ok",
			Build: func() *san.Model {
				m := san.NewModel("unshared_join_ok")
				s1 := m.Sub("s1")
				s2 := m.Sub("s2")
				shared := s1.Place("shared", 1)
				cycler(s1, shared)
				s2.Share(shared) // the Join operation, declared
				consumer := s2.TimedActivity("consumer", rng.Exponential{Rate: 1})
				consumer.InputArc(shared, 1)
				return m
			},
		},
		{
			Name:   "reward-ref-bad",
			Expect: []string{sanalyze.CheckRewardRef},
			Build: func() *san.Model {
				m, s, p := base("reward_ref_bad")
				cycler(s, p)
				m.AddRateReward("tokens", func() float64 { return float64(p.Tokens()) },
					"s/renamed_place") // stale reference after a rename
				return m
			},
		},
		{
			Name: "reward-ref-ok",
			Build: func() *san.Model {
				m, s, p := base("reward_ref_ok")
				cycler(s, p)
				m.AddRateReward("tokens", func() float64 { return float64(p.Tokens()) },
					p.Name())
				return m
			},
		},
		{
			Name:   "isolated-place-bad",
			Expect: []string{sanalyze.CheckIsolatedPlace},
			Build: func() *san.Model {
				m, s, p := base("isolated_place_bad")
				cycler(s, p)
				s.Place("forgotten", 2) // nothing links or measures it
				return m
			},
		},
		{
			Name: "isolated-place-ok",
			Build: func() *san.Model {
				m, s, p := base("isolated_place_ok")
				cycler(s, p)
				watched := s.Place("watched", 2)
				m.AddRateReward("watched_tokens",
					func() float64 { return float64(watched.Tokens()) }, watched.Name())
				return m
			},
		},
	}
}

// weight wraps a constant case weight.
func weight(w float64) func() float64 {
	return func() float64 { return w }
}

// base creates a model with one submodel and one marked place.
func base(name string) (*san.Model, *san.Sub, *san.Place) {
	m := san.NewModel(name)
	s := m.Sub("s")
	p := s.Place("p", 1)
	return m, s, p
}

// cycler adds a timed activity that consumes and reproduces one token of p,
// keeping p live (read and written) without involving other places.
func cycler(s *san.Sub, p *san.Place) *san.Activity {
	act := s.TimedActivity("cycle_"+shortName(p), rng.Exponential{Rate: 1})
	act.InputArc(p, 1)
	act.OutputArc(p, 1)
	return act
}

// shortName strips the submodel prefix for component naming.
func shortName(p *san.Place) string {
	name := p.Name()
	for i := 0; i < len(name); i++ {
		if name[i] == '/' {
			return name[i+1:]
		}
	}
	return name
}
