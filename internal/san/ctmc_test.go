package san

import (
	"math"
	"strings"
	"testing"

	"vcpusim/internal/rng"
)

// buildMM1K constructs an M/M/1/K queue: arrivals blocked at capacity.
func buildMM1K(lambda, mu float64, k int) (*Model, *Place) {
	m := NewModel("mm1k")
	s := m.Sub("q")
	queue := s.Place("queue", 0)
	arrive := s.TimedActivity("arrive", rng.Exponential{Rate: lambda})
	arrive.Predicate(func() bool { return queue.Tokens() < k })
	arrive.AddCase(nil, func() { queue.Add(1) })
	serve := s.TimedActivity("serve", rng.Exponential{Rate: mu})
	serve.Predicate(func() bool { return queue.Tokens() > 0 })
	serve.AddCase(nil, func() { queue.Add(-1) })
	m.AddRateReward("L", func() float64 { return float64(queue.Tokens()) })
	m.AddRateReward("full", func() float64 {
		if queue.Tokens() == k {
			return 1
		}
		return 0
	})
	return m, queue
}

// mm1kTheory returns the analytic mean queue length and blocking
// probability of M/M/1/K.
func mm1kTheory(lambda, mu float64, k int) (meanL, pBlock float64) {
	rho := lambda / mu
	// pi_i = rho^i * (1-rho)/(1-rho^(K+1)) for rho != 1.
	denom := 1 - math.Pow(rho, float64(k+1))
	for i := 0; i <= k; i++ {
		pi := math.Pow(rho, float64(i)) * (1 - rho) / denom
		meanL += float64(i) * pi
		if i == k {
			pBlock = pi
		}
	}
	return meanL, pBlock
}

func TestSolveMM1KAgainstClosedForm(t *testing.T) {
	cases := []struct {
		lambda, mu float64
		k          int
	}{
		{0.5, 1.0, 5},
		{0.8, 1.0, 10},
		{2.0, 1.0, 4}, // overloaded queue
	}
	for _, tc := range cases {
		model, _ := buildMM1K(tc.lambda, tc.mu, tc.k)
		res, err := SolveSteadyState(model, SolveOptions{})
		if err != nil {
			t.Fatalf("lambda=%g k=%d: %v", tc.lambda, tc.k, err)
		}
		if res.States != tc.k+1 {
			t.Errorf("states = %d, want %d", res.States, tc.k+1)
		}
		wantL, wantBlock := mm1kTheory(tc.lambda, tc.mu, tc.k)
		if got := res.Rates["L"]; math.Abs(got-wantL) > 1e-6 {
			t.Errorf("lambda=%g k=%d: L = %.8f, theory %.8f", tc.lambda, tc.k, got, wantL)
		}
		if got := res.Rates["full"]; math.Abs(got-wantBlock) > 1e-6 {
			t.Errorf("lambda=%g k=%d: blocking = %.8f, theory %.8f", tc.lambda, tc.k, got, wantBlock)
		}
		// Flow balance: arrival throughput equals service throughput.
		if a, s := res.Throughput["q/arrive"], res.Throughput["q/serve"]; math.Abs(a-s) > 1e-8 {
			t.Errorf("throughputs unbalanced: arrive %.8f serve %.8f", a, s)
		}
		// Effective arrival rate is lambda*(1 - pBlock).
		wantThrough := tc.lambda * (1 - wantBlock)
		if got := res.Throughput["q/arrive"]; math.Abs(got-wantThrough) > 1e-6 {
			t.Errorf("throughput = %.8f, theory %.8f", got, wantThrough)
		}
	}
}

func TestSolveAgreesWithSimulation(t *testing.T) {
	// A two-node closed cycle: N customers alternate between two
	// exponential stations.
	build := func() (*Model, *Place) {
		m := NewModel("cycle")
		s := m.Sub("c")
		a := s.Place("a", 3)
		b := s.Place("b", 0)
		moveAB := s.TimedActivity("ab", rng.Exponential{Rate: 1.0})
		moveAB.Predicate(func() bool { return a.Tokens() > 0 })
		moveAB.AddCase(nil, func() { a.Add(-1); b.Add(1) })
		moveBA := s.TimedActivity("ba", rng.Exponential{Rate: 0.5})
		moveBA.Predicate(func() bool { return b.Tokens() > 0 })
		moveBA.AddCase(nil, func() { b.Add(-1); a.Add(1) })
		m.AddRateReward("atA", func() float64 { return float64(a.Tokens()) })
		return m, a
	}
	model, _ := build()
	res, err := SolveSteadyState(model, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 4 {
		t.Fatalf("states = %d, want 4", res.States)
	}

	simModel, _ := build()
	r, err := compileReset(simModel, 5)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := r.RunInterval(1000, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(res.Rates["atA"] - simRes.Rates["atA"]); d > 0.05 {
		t.Errorf("numeric %g vs simulated %g differ by %g", res.Rates["atA"], simRes.Rates["atA"], d)
	}
}

func TestSolveVanishingMarkings(t *testing.T) {
	// An exponential source feeds an instantaneous router that sends
	// tokens to A with probability 0.25 and B with 0.75; sinks drain both.
	m := NewModel("router")
	s := m.Sub("r")
	in := s.Place("in", 0)
	a := s.Place("a", 0)
	b := s.Place("b", 0)
	src := s.TimedActivity("src", rng.Exponential{Rate: 1})
	src.Predicate(func() bool { return in.Tokens() == 0 && a.Tokens() == 0 && b.Tokens() == 0 })
	src.AddCase(nil, func() { in.Add(1) })
	route := s.InstantActivity("route")
	route.InputArc(in, 1)
	route.AddCase(func() float64 { return 1 }, func() { a.Add(1) })
	route.AddCase(func() float64 { return 3 }, func() { b.Add(1) })
	drainA := s.TimedActivity("drainA", rng.Exponential{Rate: 2})
	drainA.InputArc(a, 1)
	drainB := s.TimedActivity("drainB", rng.Exponential{Rate: 2})
	drainB.InputArc(b, 1)
	m.AddRateReward("atA", func() float64 { return float64(a.Tokens()) })
	m.AddRateReward("atB", func() float64 { return float64(b.Tokens()) })

	res, err := SolveSteadyState(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Vanishing 'in' markings must not appear as states: {empty, A, B}.
	if res.States != 3 {
		t.Fatalf("states = %d, want 3 tangible", res.States)
	}
	// Tokens route 1:3, drains are symmetric, so time-at-B is 3x time-at-A.
	ratio := res.Rates["atB"] / res.Rates["atA"]
	if math.Abs(ratio-3) > 1e-6 {
		t.Errorf("B/A occupancy ratio = %g, want 3", ratio)
	}
	// Throughput splits 1:3 across the drains.
	dr := res.Throughput["r/drainB"] / res.Throughput["r/drainA"]
	if math.Abs(dr-3) > 1e-6 {
		t.Errorf("drain throughput ratio = %g, want 3", dr)
	}
}

func TestSolveRejectsUnsupportedModels(t *testing.T) {
	t.Run("extended places", func(t *testing.T) {
		m, _ := buildMM1K(0.5, 1, 3)
		NewExtPlace(m.Sub("x"), "e", func() int { return 0 })
		if _, err := SolveSteadyState(m, SolveOptions{}); err == nil {
			t.Fatal("extended places accepted")
		}
	})
	t.Run("non-exponential", func(t *testing.T) {
		m := NewModel("det")
		s := m.Sub("s")
		p := s.Place("p", 0)
		a := s.TimedActivity("tick", rng.Deterministic{Value: 1})
		a.AddCase(nil, func() { p.SetTokens(1 - p.Tokens()) })
		if _, err := SolveSteadyState(m, SolveOptions{}); err == nil {
			t.Fatal("deterministic delay accepted")
		}
	})
	t.Run("no timed activities", func(t *testing.T) {
		m := NewModel("empty")
		m.Sub("s").Place("p", 0)
		if _, err := SolveSteadyState(m, SolveOptions{}); err == nil {
			t.Fatal("model without timed activities accepted")
		}
	})
	t.Run("open state space", func(t *testing.T) {
		m, _ := buildMM1(0.5, 1.0) // unbounded queue from queueing_test.go
		_, err := SolveSteadyState(m, SolveOptions{MaxStates: 500})
		if err == nil || !strings.Contains(err.Error(), "MaxStates") {
			t.Fatalf("open model error = %v", err)
		}
	})
	t.Run("deadlock", func(t *testing.T) {
		m := NewModel("dead")
		s := m.Sub("s")
		p := s.Place("p", 1)
		a := s.TimedActivity("once", rng.Exponential{Rate: 1})
		a.InputArc(p, 1) // fires once, then nothing is enabled
		if _, err := SolveSteadyState(m, SolveOptions{}); err == nil {
			t.Fatal("deadlocked model accepted")
		}
	})
}

func TestSolveVCPUModelRejected(t *testing.T) {
	// The framework's own composed model uses extended places and a
	// deterministic clock: the solver must refuse it cleanly (it is
	// simulated instead, as in the paper).
	m := NewModel("framework-like")
	s := m.Sub("s")
	NewExtPlace(s, "slot", func() int { return 0 })
	clock := s.TimedActivity("clock", rng.Deterministic{Value: 1})
	clock.AddCase(nil, func() {})
	if _, err := SolveSteadyState(m, SolveOptions{}); err == nil {
		t.Fatal("framework-like model accepted")
	}
}
