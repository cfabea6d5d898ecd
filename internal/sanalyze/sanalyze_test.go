package sanalyze_test

import (
	"fmt"
	"strings"
	"testing"

	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sanalyze"
	"vcpusim/internal/sanalyze/fixtures"
)

// TestFixtures pins every seeded-defect fixture to its exact finding
// set and every clean counterpart to a silent report.
func TestFixtures(t *testing.T) {
	for _, fx := range fixtures.All() {
		fx := fx
		t.Run(fx.Name, func(t *testing.T) {
			m := fx.Build()
			if err := m.Err(); err != nil {
				t.Fatalf("fixture model invalid: %v", err)
			}
			r := sanalyze.AnalyzeModel(m, sanalyze.Options{Disabled: fx.Disabled})
			got := map[string]bool{}
			for _, f := range r.Findings {
				got[f.Check] = true
			}
			want := map[string]bool{}
			for _, c := range fx.Expect {
				want[c] = true
			}
			for c := range want {
				if !got[c] {
					t.Errorf("expected check %s to fire, findings: %v", c, r.Findings)
				}
			}
			for c := range got {
				if !want[c] {
					t.Errorf("unexpected check %s, findings: %v", c, r.Findings)
				}
			}
		})
	}
}

// TestCounterexampleTraces verifies defects come with a firing-sequence
// witness a human can replay.
func TestCounterexampleTraces(t *testing.T) {
	for _, fx := range fixtures.All() {
		if fx.Name != "deadlock-bad" && fx.Name != "unbounded-place-bad" {
			continue
		}
		r := sanalyze.AnalyzeModel(fx.Build(), sanalyze.Options{})
		found := false
		for _, f := range r.Findings {
			if f.Severity == sanalyze.Error && len(f.Trace) > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no error finding carries a counterexample trace: %v", fx.Name, r.Findings)
		}
	}
}

// TestDisabledNotDead is the SetActivityEnabled × vet regression: an
// activity excluded by a fault plan must not be reported dead, while
// the same net with the activity enabled proves it live.
func TestDisabledNotDead(t *testing.T) {
	var fx fixtures.Fixture
	for _, f := range fixtures.All() {
		if f.Name == "disabled-not-dead" {
			fx = f
		}
	}
	if fx.Build == nil {
		t.Fatal("disabled-not-dead fixture missing")
	}

	r := sanalyze.AnalyzeModel(fx.Build(), sanalyze.Options{Disabled: fx.Disabled})
	for _, f := range r.Findings {
		if f.Check == sanalyze.CheckDeadActivity {
			t.Errorf("disabled activity reported dead: %v", f)
		}
	}
	if !r.Reach.Complete {
		t.Errorf("exploration should complete with the activity excluded: %+v", r.Reach)
	}

	// Enabled, the same activity fires and the report is equally clean.
	r = sanalyze.AnalyzeModel(fx.Build(), sanalyze.Options{})
	if len(r.Findings) != 0 {
		t.Errorf("enabled variant should be clean, got %v", r.Findings)
	}
}

// TestPInvariantBound checks the invariant machinery on a weighted net:
// move consumes one a and produces two b, so 2a+b is invariant and both
// places get invariant-covered bounds.
func TestPInvariantBound(t *testing.T) {
	m := san.NewModel("weighted")
	s := m.Sub("s")
	a := s.Place("a", 3)
	b := s.Place("b", 0)
	s.TimedActivity("move", rng.Exponential{Rate: 1}).
		InputArc(a, 1).OutputArc(b, 2)
	s.TimedActivity("back", rng.Exponential{Rate: 1}).
		InputArc(b, 2).OutputArc(a, 1)
	r := sanalyze.AnalyzeModel(m, sanalyze.Options{})

	var bounds = map[string]int{}
	var methods = map[string]string{}
	for _, pb := range r.Bounds {
		bounds[pb.Place] = pb.Bound
		methods[pb.Place] = pb.Method
	}
	// 2a+b = 6: a ≤ 3, b ≤ 6.
	if bounds[a.Name()] != 3 || bounds[b.Name()] != 6 {
		t.Errorf("bounds = %v, want a≤3 b≤6 (invariants %v)", bounds, r.PInvariants)
	}
	if methods[a.Name()] != "p-invariant" || methods[b.Name()] != "p-invariant" {
		t.Errorf("methods = %v, want p-invariant", methods)
	}
	// The cycle is also a T-invariant: move twice, back once... in
	// token-count terms 1·move + 1·back is not neutral (move adds +1 net
	// to b per (1,1)? No: move: a-1 b+2; back: b-2 a+1; sum is zero).
	if len(r.TInvariants) == 0 {
		t.Errorf("expected a T-invariant for the move/back cycle")
	}
}

// TestDrainCertificate exercises the tick-place certificate: a timed
// clock marks the tick place, an instantaneous handler drains it.
func TestDrainCertificate(t *testing.T) {
	m := san.NewModel("drain")
	s := m.Sub("s")
	tick := s.Place("tick", 0)
	done := s.Place("done", 0)
	s.TimedActivity("clock", rng.Exponential{Rate: 1}).
		OutputArc(tick, 1)
	handler := s.InstantActivity("handle")
	handler.InputArc(tick, 1)
	// The handler's side effect goes through a gate so the net is not
	// pure-arc and reachability cannot supply the bound; its enabling
	// condition stays pure (only the counted arc), as the drain
	// certificate requires.
	handler.AddCase(func() float64 { return 1 }, func() { done.Add(0) })
	handler.Link(san.LinkOutput, done.Name())

	r := sanalyze.AnalyzeModel(m, sanalyze.Options{})
	if r.Reach.Ran {
		t.Fatalf("gate-coupled net must skip reachability: %+v", r.Reach)
	}
	var tickBound sanalyze.PlaceBound
	for _, b := range r.Bounds {
		if b.Place == tick.Name() {
			tickBound = b
		}
	}
	if tickBound.Method != "drained" || tickBound.Bound != 1 {
		t.Errorf("tick bound = %+v, want drained ≤ 1", tickBound)
	}

	// Disabling the drain activity must void the certificate.
	r = sanalyze.AnalyzeModel(m, sanalyze.Options{Disabled: []string{handler.Name()}})
	for _, b := range r.Bounds {
		if b.Place == tick.Name() && b.Method == "drained" {
			t.Errorf("drain certificate must not use a disabled activity: %+v", b)
		}
	}
}

// TestCapacityCertificate: a declared capacity is the fallback when no
// structural certificate applies.
func TestCapacityCertificate(t *testing.T) {
	m := san.NewModel("cap")
	s := m.Sub("s")
	q := s.Place("q", 0)
	q.SetCapacity(4)
	act := s.TimedActivity("gated", rng.Exponential{Rate: 1})
	act.Predicate(func() bool { return q.Tokens() < 4 })
	act.AddCase(func() float64 { return 1 }, func() { q.Add(1) })
	act.Link(san.LinkOutput, q.Name())

	r := sanalyze.AnalyzeModel(m, sanalyze.Options{})
	var b sanalyze.PlaceBound
	for _, pb := range r.Bounds {
		if pb.Place == q.Name() {
			b = pb
		}
	}
	if b.Method != "capacity" || b.Bound != 4 {
		t.Errorf("bound = %+v, want capacity ≤ 4", b)
	}
}

// TestPerpetualActivityCertificate: a clock with no enabling condition
// proves deadlock freedom on a net reachability cannot touch.
func TestPerpetualActivityCertificate(t *testing.T) {
	m := san.NewModel("perpetual")
	s := m.Sub("s")
	q := s.Place("q", 0)
	clock := s.TimedActivity("clock", rng.Exponential{Rate: 1})
	clock.AddCase(func() float64 { return 1 }, func() {})
	clock.Link(san.LinkInput, q.Name())

	r := sanalyze.AnalyzeModel(m, sanalyze.Options{})
	if !r.DeadlockFree() || r.Deadlock.Method != "perpetual-activity" {
		t.Errorf("deadlock verdict = %+v, want perpetual-activity proof", r.Deadlock)
	}
	// Disabling the clock voids the certificate.
	r = sanalyze.AnalyzeModel(m, sanalyze.Options{Disabled: []string{clock.Name()}})
	if r.DeadlockFree() {
		t.Errorf("certificate must not rest on a disabled activity: %+v", r.Deadlock)
	}
}

// TestConformance verifies the dynamic link-conformance check: honest
// LinkN declarations pass, lying and undeclared gate writes fail.
func TestConformance(t *testing.T) {
	build := func(declare func(a *san.Activity, q *san.Place)) *san.Instance {
		m := san.NewModel("conf")
		s := m.Sub("s")
		q := s.Place("q", 0)
		sink := s.InstantActivity("sink")
		sink.InputArc(q, 2)
		act := s.TimedActivity("emit", rng.Exponential{Rate: 1})
		act.AddCase(func() float64 { return 1 }, func() { q.Add(1) })
		declare(act, q)
		prog, err := san.Compile(m)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		in, err := prog.NewInstance()
		if err != nil {
			t.Fatalf("instance: %v", err)
		}
		return in
	}

	honest := build(func(a *san.Activity, q *san.Place) {
		a.LinkN(san.LinkOutput, q.Name(), 1)
	})
	findings, checked, err := sanalyze.Conformance(honest, 50, 1)
	if err != nil {
		t.Fatalf("honest run: %v", err)
	}
	if checked == 0 {
		t.Fatal("no firings checked")
	}
	if len(findings) != 0 {
		t.Errorf("honest declaration flagged: %v", findings)
	}

	lying := build(func(a *san.Activity, q *san.Place) {
		a.LinkN(san.LinkOutput, q.Name(), 2) // gate actually adds 1
	})
	findings, _, err = sanalyze.Conformance(lying, 50, 1)
	if err != nil {
		t.Fatalf("lying run: %v", err)
	}
	if !hasCheck(findings, sanalyze.CheckConformance) {
		t.Errorf("lying declaration not flagged: %v", findings)
	}

	undeclared := build(func(a *san.Activity, q *san.Place) {})
	findings, _, err = sanalyze.Conformance(undeclared, 50, 1)
	if err != nil {
		t.Fatalf("undeclared run: %v", err)
	}
	if !hasCheck(findings, sanalyze.CheckConformance) {
		t.Errorf("undeclared write not flagged: %v", findings)
	}
	if !strings.Contains(findings[0].Message, "undeclared write") {
		t.Errorf("message should name the undeclared write: %v", findings[0])
	}
}

// TestNegativeMarking: two input arcs on one place check enabledness
// independently but consume cumulatively — the explorer must flag the
// resulting negative marking instead of exploring garbage.
func TestNegativeMarking(t *testing.T) {
	m := san.NewModel("negative")
	s := m.Sub("s")
	q := s.Place("q", 1)
	a := s.TimedActivity("double", rng.Exponential{Rate: 1})
	a.InputArc(q, 1)
	a.InputArc(q, 1)
	r := sanalyze.AnalyzeModel(m, sanalyze.Options{})
	if !hasCheck(r.Findings, sanalyze.CheckNegativeMarking) {
		t.Errorf("negative marking not flagged: %v", r.Findings)
	}
}

// TestBudget: exceeding the state budget must degrade honestly — the
// report marks exploration incomplete instead of claiming proofs.
func TestBudget(t *testing.T) {
	m := san.NewModel("budget")
	s := m.Sub("s")
	// A 3-place counter with 12 tokens has hundreds of states.
	p1 := s.Place("p1", 12)
	p2 := s.Place("p2", 0)
	p3 := s.Place("p3", 0)
	s.TimedActivity("ab", rng.Exponential{Rate: 1}).InputArc(p1, 1).OutputArc(p2, 1)
	s.TimedActivity("bc", rng.Exponential{Rate: 1}).InputArc(p2, 1).OutputArc(p3, 1)
	s.TimedActivity("ca", rng.Exponential{Rate: 1}).InputArc(p3, 1).OutputArc(p1, 1)
	r := sanalyze.AnalyzeModel(m, sanalyze.Options{MaxStates: 10})
	if r.Reach.Complete {
		t.Errorf("10-state budget cannot complete: %+v", r.Reach)
	}
	if !r.Reach.Ran {
		t.Errorf("exploration should still run: %+v", r.Reach)
	}
	// The invariant certificate still bounds all three places.
	for _, b := range r.Bounds {
		if b.Bound != 12 || b.Method != "p-invariant" {
			t.Errorf("invariant bound survives budget cut: %+v", b)
		}
	}
	// Dead-activity verdicts are suppressed on incomplete exploration.
	if hasCheck(r.Findings, sanalyze.CheckDeadActivity) {
		t.Errorf("dead-activity claimed on incomplete exploration: %v", r.Findings)
	}
}

// TestReportStable renders a report twice and requires identical bytes
// (map iteration must not leak into the output).
func TestReportStable(t *testing.T) {
	fx := fixtures.All()[0]
	render := func() string {
		var sb strings.Builder
		sanalyze.AnalyzeModel(fx.Build(), sanalyze.Options{}).Write(&sb)
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("unstable report:\n%s\n---\n%s", a, b)
	}
}

// fanNet is a pure net of one place s/p with n output-only producers
// and n input-only consumers. Every producer/consumer pair is a minimal
// T-invariant, n² in all, and every producer pumps p.
func fanNet(n int) *san.Model {
	m := san.NewModel("fan")
	s := m.Sub("s")
	p := s.Place("p", 0)
	for i := 0; i < n; i++ {
		s.TimedActivity(fmt.Sprintf("produce%d", i), rng.Exponential{Rate: 1}).OutputArc(p, 1)
	}
	for i := 0; i < n; i++ {
		s.TimedActivity(fmt.Sprintf("consume%d", i), rng.Exponential{Rate: 1}).InputArc(p, 1)
	}
	return m
}

// TestTInvariantBudget: a T-invariant basis cut at the row budget must
// be reported, not passed off as complete.
func TestTInvariantBudget(t *testing.T) {
	r := sanalyze.AnalyzeModel(fanNet(30), sanalyze.Options{})
	if len(r.TInvariants) >= 900 {
		t.Fatalf("%d T-invariants: the 900-invariant basis should exceed the row budget", len(r.TInvariants))
	}
	found := false
	for _, f := range r.Findings {
		if f.Check == sanalyze.CheckBudget && strings.Contains(f.Message, "T-invariant") {
			found = true
		}
	}
	if !found {
		t.Errorf("truncated T-invariant basis (%d of 900) not reported; checks: %v", len(r.TInvariants), checkSet(r.Findings))
	}
}

// TestUnboundedOncePerPlace: a place pumped along many paths is
// reported unbounded once, with the first pumping path found.
func TestUnboundedOncePerPlace(t *testing.T) {
	r := sanalyze.AnalyzeModel(fanNet(30), sanalyze.Options{})
	var unbounded []sanalyze.Finding
	for _, f := range r.Findings {
		if f.Check == sanalyze.CheckUnbounded {
			unbounded = append(unbounded, f)
		}
	}
	if len(unbounded) != 1 || unbounded[0].Component != "place s/p" {
		t.Fatalf("%d unbounded-place findings, want one for place s/p", len(unbounded))
	}
	if got := strings.Join(unbounded[0].Trace, " "); got != "s/produce0" {
		t.Errorf("trace = %q, want the first pumping path s/produce0", got)
	}
}

func hasCheck(fs []sanalyze.Finding, check string) bool {
	for _, f := range fs {
		if f.Check == check {
			return true
		}
	}
	return false
}
