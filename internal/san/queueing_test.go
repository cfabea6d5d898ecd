package san

import (
	"math"
	"testing"

	"vcpusim/internal/rng"
)

// buildMM1 constructs an M/M/1 queue as a SAN: a Poisson(lambda) arrival
// activity and an Exp(mu) service activity racing over the queue place.
func buildMM1(lambda, mu float64) (*Model, *Place) {
	m := NewModel("mm1")
	s := m.Sub("q")
	queue := s.Place("queue", 0)
	arrive := s.TimedActivity("arrive", rng.Exponential{Rate: lambda})
	arrive.OutputArc(queue, 1)
	serve := s.TimedActivity("serve", rng.Exponential{Rate: mu})
	serve.Predicate(func() bool { return queue.Tokens() > 0 })
	serve.AddCase(nil, func() { queue.Add(-1) })
	m.AddRateReward("L", func() float64 { return float64(queue.Tokens()) })
	m.AddRateReward("busy", func() float64 {
		if queue.Tokens() > 0 {
			return 1
		}
		return 0
	})
	return m, queue
}

// TestMM1AgainstTheory validates the SAN engine's stochastic execution
// semantics against closed-form queueing theory: for an M/M/1 queue with
// utilization rho, the mean number in system is rho/(1-rho) and the server
// utilization is rho. Exponential races under the engine's race-enabled
// policy form exactly the M/M/1 CTMC.
func TestMM1AgainstTheory(t *testing.T) {
	cases := []struct{ lambda, mu float64 }{
		{0.3, 1.0},
		{0.5, 1.0},
		{0.7, 1.0},
	}
	for _, tc := range cases {
		rho := tc.lambda / tc.mu
		wantL := rho / (1 - rho)

		// Average several replications to tighten the estimate.
		var sumL, sumBusy float64
		const reps = 4
		for seed := uint64(1); seed <= reps; seed++ {
			model, _ := buildMM1(tc.lambda, tc.mu)
			r, err := compileReset(model, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(50000)
			if err != nil {
				t.Fatal(err)
			}
			sumL += res.Rates["L"]
			sumBusy += res.Rates["busy"]
		}
		gotL, gotBusy := sumL/reps, sumBusy/reps
		if math.Abs(gotL-wantL) > 0.12*wantL+0.05 {
			t.Errorf("rho=%.1f: mean queue length %.3f, theory %.3f", rho, gotL, wantL)
		}
		if math.Abs(gotBusy-rho) > 0.05 {
			t.Errorf("rho=%.1f: utilization %.3f, theory %.3f", rho, gotBusy, rho)
		}
	}
}

// TestMM1LittleLaw cross-checks Little's law on the same model: the mean
// number in system equals the arrival rate times the mean time in system,
// estimated from throughput counts.
func TestMM1LittleLaw(t *testing.T) {
	model, _ := buildMM1(0.5, 1.0)
	var arrivals *Activity
	for _, a := range model.Activities() {
		if a.Name() == "q/arrive" {
			arrivals = a
		}
	}
	model.AddImpulseReward("arrivals", arrivals, nil)
	r, err := compileReset(model, 11)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 50000.0
	res, err := r.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	lambdaHat := res.Impulses["arrivals"] / horizon
	if math.Abs(lambdaHat-0.5) > 0.03 {
		t.Fatalf("arrival rate estimate %.3f, want ~0.5", lambdaHat)
	}
	// W = L/lambda must be near the M/M/1 sojourn 1/(mu-lambda) = 2.
	w := res.Rates["L"] / lambdaHat
	if math.Abs(w-2) > 0.3 {
		t.Fatalf("mean sojourn %.3f, theory 2", w)
	}
}
