// SAN substrate: the framework is built on a general Stochastic Activity
// Network engine (the paper's §II.A formalism), which is a usable modeling
// library in its own right. Like the Möbius tool it substitutes for, it
// solves models either numerically (CTMC steady state, for models with
// exponential delays) or by simulation.
//
// This example models an M/M/1/K queue as a SAN, solves it both ways, and
// compares against the closed-form result — three independent answers that
// must agree.
package main

import (
	"fmt"
	"log"
	"math"

	"vcpusim/internal/rng"
	"vcpusim/internal/san"
)

const (
	lambda = 0.8 // arrival rate
	mu     = 1.0 // service rate
	k      = 8   // queue capacity
)

// buildQueue constructs the M/M/1/K SAN: one place holding the queue
// length, an arrival activity gated by capacity, a service activity gated
// by work.
func buildQueue() *san.Model {
	m := san.NewModel("mm1k")
	s := m.Sub("queue")
	q := s.Place("jobs", 0)

	arrive := s.TimedActivity("arrive", rng.Exponential{Rate: lambda})
	arrive.Predicate(func() bool { return q.Tokens() < k })
	arrive.AddCase(nil, func() { q.Add(1) })

	serve := s.TimedActivity("serve", rng.Exponential{Rate: mu})
	serve.Predicate(func() bool { return q.Tokens() > 0 })
	serve.AddCase(nil, func() { q.Add(-1) })

	m.AddRateReward("mean jobs in system", func() float64 { return float64(q.Tokens()) })
	m.AddRateReward("P(blocked)", func() float64 {
		if q.Tokens() == k {
			return 1
		}
		return 0
	})
	return m
}

// closedForm returns the textbook M/M/1/K results.
func closedForm() (meanL, pBlock float64) {
	rho := lambda / mu
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

func main() {
	fmt.Printf("M/M/1/%d queue, lambda=%.1f, mu=%.1f\n\n", k, lambda, mu)

	// 1. Numerical: explore the CTMC and solve for the stationary
	// distribution.
	numeric, err := san.SolveSteadyState(buildQueue(), san.SolveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("numerical solver: %d states, %d iterations\n", numeric.States, numeric.Iterations)

	// 2. Simulation: compile the model once, then run one long
	// replication with the initial transient discarded.
	prog, err := san.Compile(buildQueue())
	if err != nil {
		log.Fatal(err)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		log.Fatal(err)
	}
	inst.Reset(42)
	simulated, err := inst.RunInterval(5000, 500000)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Closed form.
	wantL, wantBlock := closedForm()

	fmt.Printf("\n%-22s %12s %12s %12s\n", "metric", "closed form", "numerical", "simulation")
	fmt.Printf("%-22s %12.5f %12.5f %12.5f\n", "mean jobs in system",
		wantL, numeric.Rates["mean jobs in system"], simulated.Rates["mean jobs in system"])
	fmt.Printf("%-22s %12.5f %12.5f %12.5f\n", "P(blocked)",
		wantBlock, numeric.Rates["P(blocked)"], simulated.Rates["P(blocked)"])
	fmt.Printf("%-22s %12.5f %12.5f %12s\n", "throughput",
		lambda*(1-wantBlock), numeric.Throughput["queue/serve"], "-")
}
