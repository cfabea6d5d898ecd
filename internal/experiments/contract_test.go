package experiments

import (
	"bytes"
	"context"
	"math"
	"testing"

	"vcpusim/internal/rng"
	"vcpusim/internal/sim"
)

// TestGoldenContractGridEquivalence renders Figure 9 on the SAN engine
// under contract 1 and contract 2: the tables must be byte-identical.
// The experiment grid's workload clocks are all deterministic or
// imperatively sampled, so the v2 ziggurat lowering never engages and
// v2 must reproduce the v1 trajectories exactly — this is the
// strongest possible form of the v1-vs-v2 agreement check.
func TestGoldenContractGridEquivalence(t *testing.T) {
	render := func(contract int) string {
		p := quickParams()
		p.Engine = EngineSAN
		p.Contract = contract
		tbl, err := Figure9(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	v1, v2 := render(1), render(2)
	if v1 != v2 {
		t.Fatalf("figure 9 differs across determinism contracts:\nv1:\n%s\nv2:\n%s", v1, v2)
	}
}

// TestContractCellAgreementWithinCI compares one fault-campaign-free
// experiment cell between contracts when the trajectories genuinely
// diverge (exponential load makes replications differ tick by tick
// through the scheduler's interleaving): every metric's v1 and v2 means
// must agree within the sum of the two 95% confidence half-widths. Both
// runs are pure functions of the seed, so this check is deterministic —
// it either always passes or flags a real statistical regression.
func TestContractCellAgreementWithinCI(t *testing.T) {
	run := func(contract int) sim.Summary {
		p := quickParams()
		p.Engine = EngineSAN
		p.Contract = contract
		p.Load = rng.Exponential{Rate: 0.3}
		p.Horizon = 2000
		p.Sim = sim.Options{MinReps: 10, MaxReps: 10, RelWidth: 100}
		p = p.withDefaults()
		factory, err := p.schedFactory("RRS")
		if err != nil {
			t.Fatal(err)
		}
		sum, err := p.runCell(context.Background(), "contract agreement", p.fig8Config(2), factory)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	v1, v2 := run(1), run(2)
	if len(v1.Metrics) != len(v2.Metrics) {
		t.Fatalf("metric sets differ: %d vs %d", len(v1.Metrics), len(v2.Metrics))
	}
	for name, a := range v1.Metrics {
		b, ok := v2.Metrics[name]
		if !ok {
			t.Fatalf("contract 2 run missing metric %s", name)
		}
		if tol := a.HalfWidth + b.HalfWidth; math.Abs(a.Mean-b.Mean) > tol {
			t.Errorf("metric %s: v1 %v vs v2 %v outside CI overlap (tol %g)", name, a, b, tol)
		}
	}
}

// TestSANPooledEquivalenceAcrossParallelismV2 is the contract-2 mirror
// of TestSANPooledEquivalenceAcrossParallelism: pooling plus replication
// parallelism must not perturb a single bit of the v2 aggregates either.
func TestSANPooledEquivalenceAcrossParallelismV2(t *testing.T) {
	base := quickParams()
	base.Engine = EngineSAN
	base.Contract = 2
	base.Horizon = 500
	base.Sim = sim.Options{MinReps: 6, MaxReps: 6, RelWidth: 100}
	runAt := func(par int) sim.Summary {
		p := base
		p.Sim.Parallelism = par
		factory, err := p.schedFactory("RRS")
		if err != nil {
			t.Fatal(err)
		}
		sum, err := p.withDefaults().runCell(context.Background(), "pooled equivalence v2", p.fig8Config(2), factory)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	serial, parallel := runAt(1), runAt(8)
	if serial.Replications != parallel.Replications || serial.Converged != parallel.Converged {
		t.Fatalf("shape differs: serial (%d reps, %v) vs parallel (%d reps, %v)",
			serial.Replications, serial.Converged, parallel.Replications, parallel.Converged)
	}
	if len(serial.Metrics) != len(parallel.Metrics) {
		t.Fatalf("metric sets differ: %d vs %d", len(serial.Metrics), len(parallel.Metrics))
	}
	for name, a := range serial.Metrics {
		b, ok := parallel.Metrics[name]
		if !ok {
			t.Fatalf("parallel run missing metric %s", name)
		}
		if a.Mean != b.Mean || a.HalfWidth != b.HalfWidth {
			t.Errorf("metric %s: serial %v, parallel %v", name, a, b)
		}
	}
}

// TestGoldenContractEngineParity runs the fastsim-vs-SAN fidelity
// comparison under both contracts: the v2 fast path only changes how the
// SAN engine schedules and samples — not the modeled trajectory of the
// experiment systems — so the v2 disagreement must match v1's exactly
// (a few ULPs of reward accumulation-order rounding between the two
// engines, present since before the contract existed).
func TestGoldenContractEngineParity(t *testing.T) {
	maxDelta := func(contract int) map[string]float64 {
		p := quickParams()
		p.Contract = contract
		tbl, err := EngineComparison(context.Background(), p, 2)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for _, algo := range p.withDefaults().Algorithms {
			iv, ok := tbl.Get(algo, "max |SAN - fast|")
			if !ok {
				t.Fatalf("missing comparison row for %s", algo)
			}
			out[algo] = iv.Mean
		}
		return out
	}
	v1, v2 := maxDelta(1), maxDelta(2)
	for algo, d2 := range v2 {
		if d1 := v1[algo]; d2 != d1 {
			t.Errorf("%s: SAN-vs-fast disagreement changed across contracts: v1 %g, v2 %g", algo, d1, d2)
		}
		if d2 > 1e-12 {
			t.Errorf("%s: SAN(v2) and fast engines disagree by %g, beyond accumulation rounding", algo, d2)
		}
	}
}
