package san

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"vcpusim/internal/rng"
)

// compileReset compiles model and returns an instance reset with seed:
// one replication, ready to run.
func compileReset(model *Model, seed uint64, opts ...CompileOption) (*Instance, error) {
	prog, err := Compile(model, opts...)
	if err != nil {
		return nil, err
	}
	in, err := prog.NewInstance()
	if err != nil {
		return nil, err
	}
	in.Reset(seed)
	return in, nil
}

// TestInstancePooledEquivalence is the heart of the compile-once
// contract: a single Instance reset across seeds must reproduce, bit for
// bit, what a freshly built and compiled model produces for each seed —
// including when the seeds repeat, and including warmup handling.
func TestInstancePooledEquivalence(t *testing.T) {
	prog, err := Compile(buildTandem(6))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	const warmup, horizon = 100, 1500
	seeds := []uint64{1, 7, 42, 7, 1} // repeats: a reset must not remember
	for _, seed := range seeds {
		fresh, err := compileReset(buildTandem(6), seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.RunInterval(warmup, horizon)
		if err != nil {
			t.Fatal(err)
		}

		inst.Reset(seed)
		got, err := inst.RunInterval(warmup, horizon)
		if err != nil {
			t.Fatal(err)
		}

		if got.Events != want.Events || got.Firings != want.Firings {
			t.Fatalf("seed %d: pooled (%d events, %d firings) != fresh (%d events, %d firings)",
				seed, got.Events, got.Firings, want.Events, want.Firings)
		}
		if len(got.Rates) != len(want.Rates) {
			t.Fatalf("seed %d: rate metric sets differ: %v vs %v", seed, got.Rates, want.Rates)
		}
		for name, w := range want.Rates {
			// Exact float comparison on purpose: the pooled path must
			// replay the identical trajectory, not an approximation.
			if g := got.Rates[name]; g != w {
				t.Errorf("seed %d: rate %s pooled %x, fresh %x", seed, name, g, w)
			}
		}
		for name, w := range want.Impulses {
			if g := got.Impulses[name]; g != w {
				t.Errorf("seed %d: impulse %s pooled %x, fresh %x", seed, name, g, w)
			}
		}
	}
}

// TestInstanceRerunWithoutReset verifies the explicit contract: running
// twice without an intervening Reset is refused (the marking is stale),
// while a Reset re-arms the instance.
func TestInstanceRerunWithoutReset(t *testing.T) {
	prog, err := Compile(buildTandem(2))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	inst.Reset(3)
	if _, err := inst.Run(50); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Run(50); err == nil {
		t.Fatal("second Run without Reset succeeded; want the stale-marking error")
	}
	inst.Reset(3)
	if _, err := inst.Run(50); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
}

// TestInstanceResetAllocFree pins the pooling win: resetting an instance
// between replications allocates nothing. (The model here uses token
// places only; extended places run user init closures on reset, whose
// allocations belong to the model, not the executive.)
func TestInstanceResetAllocFree(t *testing.T) {
	prog, err := Compile(buildTandem(8))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	allocs := testing.AllocsPerRun(50, func() {
		seed++
		inst.Reset(seed)
		if _, err := inst.Run(200); err != nil {
			t.Fatal(err)
		}
	})
	// The event loop is allocation-free (TestRunnerSteadyStateAllocFree);
	// the budget here covers only the Results maps each Run returns.
	if allocs > 16 {
		t.Errorf("Reset+Run allocated %.1f times per replication, want near 0 (results maps only)", allocs)
	}
}

// TestInstanceResetOnlyAllocFree isolates Reset itself: zero allocations.
func TestInstanceResetOnlyAllocFree(t *testing.T) {
	prog, err := Compile(buildTandem(8))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		seed++
		inst.Reset(seed)
	}); allocs != 0 {
		t.Errorf("Reset allocated %.1f times per call, want 0", allocs)
	}
}

// TestCompileRejectsInvalidModel verifies Compile runs model validation,
// so a Program can assume a well-formed structure.
func TestCompileRejectsInvalidModel(t *testing.T) {
	m := NewModel("invalid")
	s := m.Sub("s")
	p := s.Place("p", 1)
	s.Place("p", 1) // duplicate name records a build error
	act := s.TimedActivity("act", rng.Deterministic{Value: 1})
	act.InputArc(p, 1)
	if _, err := Compile(m); err == nil {
		t.Fatal("Compile accepted a model with a duplicate component name")
	}
}

// TestRunnerSingleUse verifies that an instance refuses a second run
// without a Reset: the model marking is left at the first run's final
// state, so re-running would silently simulate from a stale marking.
func TestRunnerSingleUse(t *testing.T) {
	m := NewModel("single")
	s := m.Sub("s")
	p := s.Place("p", 1)
	act := s.TimedActivity("act", rng.Deterministic{Value: 1})
	act.AddCase(nil, func() {})
	act.Link(LinkInput, p.Name())

	r, err := compileReset(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(10); err == nil || !strings.Contains(err.Error(), "already used") {
		t.Fatalf("second Run: err = %v, want the already-used error", err)
	}
	// Argument validation still comes first: the error for a bad horizon
	// names the bad horizon, not the used instance.
	if _, err := r.Run(-1); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("bad horizon on used instance: err = %v, want the horizon error", err)
	}
}

// TestRunnerSingleUseAfterFailure verifies the guard also covers a first
// run that failed mid-way: its marking is even less trustworthy.
func TestRunnerSingleUseAfterFailure(t *testing.T) {
	m := NewModel("singlefail")
	s := m.Sub("s")
	p := s.Place("p", 0)
	act := s.TimedActivity("act", rng.Deterministic{Value: 1})
	act.AddCase(nil, func() { p.SetTokens(-1) })
	act.Link(LinkOutput, p.Name())

	r, err := compileReset(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(10); err == nil {
		t.Fatal("negative marking did not fail the run")
	}
	if _, err := r.Run(10); err == nil || !strings.Contains(err.Error(), "already used") {
		t.Fatalf("rerun after failure: err = %v, want the already-used error", err)
	}
}

// TestFireStopsAfterInputGateFailure seeds a defect in an input-gate
// function and verifies the rest of the firing is skipped: the output gate
// must not run and the activity's impulse rewards must not accumulate once
// the replication is doomed.
func TestFireStopsAfterInputGateFailure(t *testing.T) {
	m := NewModel("bailinput")
	s := m.Sub("s")
	p := s.Place("p", 0)
	outputRan := false
	act := s.TimedActivity("act", rng.Deterministic{Value: 1})
	act.InputFunc(func() { p.SetTokens(-1) }) // records the fatal error
	act.AddCase(nil, func() { outputRan = true })
	act.Link(LinkOutput, p.Name())
	m.AddImpulseReward("count", act, nil)

	r, err := compileReset(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(100); err == nil {
		t.Fatal("defective input gate did not fail the run")
	}
	if outputRan {
		t.Error("output gate ran after the input gate recorded a fatal error")
	}
	if r.impulses[0] != 0 {
		t.Errorf("impulse accumulated %g after the failure, want 0", r.impulses[0])
	}
}

// TestFireStopsAfterCaseFailure seeds a defect in case selection (all case
// weights zero) and verifies no output gate runs on the failed firing.
func TestFireStopsAfterCaseFailure(t *testing.T) {
	m := NewModel("bailcase")
	s := m.Sub("s")
	p := s.Place("p", 1)
	outputs := 0
	act := s.TimedActivity("act", rng.Deterministic{Value: 1})
	act.AddCase(func() float64 { return 0 }, func() { outputs++ })
	act.AddCase(func() float64 { return 0 }, func() { outputs++ })
	act.Link(LinkInput, p.Name())

	r, err := compileReset(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(100); err == nil || !strings.Contains(err.Error(), "weights zero") {
		t.Fatalf("err = %v, want the zero-weights error", err)
	}
	if outputs != 0 {
		t.Errorf("an output gate ran %d times after case selection failed, want 0", outputs)
	}
}

// TestRunIntervalContextCancelled verifies a cancelled context interrupts
// the event loop after at most the check interval, not at the horizon.
func TestRunIntervalContextCancelled(t *testing.T) {
	m := NewModel("cancel")
	s := m.Sub("s")
	p := s.Place("p", 1)
	fired := 0
	act := s.TimedActivity("act", rng.Deterministic{Value: 1})
	act.AddCase(nil, func() { fired++ })
	act.Link(LinkInput, p.Name())

	r, err := compileReset(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Horizon of 10M events; a cancelled context must stop the loop within
	// one check interval.
	_, err = r.RunIntervalContext(ctx, 0, 1e7)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if fired > 2*ctxCheckInterval {
		t.Errorf("loop ran %d events after cancellation, want at most ~%d", fired, ctxCheckInterval)
	}
	if fired == 0 {
		t.Error("loop never started; cancellation should interrupt, not pre-empt validation")
	}
}

// TestRunnerSteadyStateAllocFree verifies the tentpole's allocation
// contract: once the event loop is running, firings allocate nothing, so
// total allocations are independent of the horizon. Two identical models
// run for 1x and 10x the horizon; the allocation difference must stay at
// the (constant) warmup/result overhead, far below one alloc per event.
func TestRunnerSteadyStateAllocFree(t *testing.T) {
	run := func(horizon float64) uint64 {
		m := buildTandem(4)
		r, err := compileReset(m, 7)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := r.Run(horizon)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Events < uint64(horizon) {
			t.Fatalf("only %d events over horizon %g; model too idle for the test", res.Events, horizon)
		}
		return after.Mallocs - before.Mallocs
	}
	short := run(500)
	long := run(5000)
	// ~9x more events; allow slack for incidental runtime allocations, but
	// a single alloc-per-event regression would add thousands.
	extra := int64(long) - int64(short)
	if extra > 500 {
		t.Errorf("10x horizon cost %d extra allocations; the event loop is no longer allocation-free", extra)
	}
}

// buildJobShop is a small open queue with an extended place: arrivals
// join a token queue, service appends each departure's size to a slice
// held in an extended place, and rewards read both. It exercises every
// kind of state Bind and Store move: token counts, a reference-typed
// extended value, and completion counts.
func buildJobShop() *Model {
	m := NewModel("jobshop")
	s := m.Sub("s")
	queue := s.Place("queue", 0)
	served := NewExtPlace(s, "served", func() []int { return nil })
	arrive := s.TimedActivity("arrive", rng.Exponential{Rate: 1.2})
	arrive.OutputArc(queue, 1)
	serve := s.TimedActivity("serve", rng.Exponential{Rate: 1.5})
	serve.InputArc(queue, 1)
	serve.Link(LinkOutput, served.Name())
	serve.AddCase(nil, func() {
		v := served.Get()
		*v = append(*v, queue.Tokens())
	})
	m.AddRateReward("queue", func() float64 { return float64(queue.Tokens()) }, queue.Name())
	m.AddRateReward("served", func() float64 { return float64(len(*served.Peek())) }, served.Name())
	m.AddImpulseReward("departures", serve, nil)
	return m
}

// TestInstanceBindStoreTwins runs three replications in interleaved
// slices on two programs compiled from twin models, binding each
// instance to whichever program is free and storing it back after every
// slice. Each must produce exactly what it produces running alone,
// completion counts included: they follow the instance, not the model.
func TestInstanceBindStoreTwins(t *testing.T) {
	const horizon = 400.0
	seeds := []uint64{3, 8, 21}
	serveCount := func(m *Model) uint64 {
		for _, a := range m.Activities() {
			if a.Name() == "s/serve" {
				return a.Completed()
			}
		}
		t.Fatal("no s/serve activity")
		return 0
	}
	alone := make([]Results, len(seeds))
	aloneServed := make([]uint64, len(seeds))
	for i, seed := range seeds {
		in, err := compileReset(buildJobShop(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if alone[i], err = in.RunInterval(50, horizon); err != nil {
			t.Fatal(err)
		}
		aloneServed[i] = serveCount(in.Program().Model())
	}

	var progs [2]*Program
	for i := range progs {
		p, err := Compile(buildJobShop())
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	insts := make([]*Instance, len(seeds))
	for i, seed := range seeds {
		in, err := progs[0].NewInstance()
		if err != nil {
			t.Fatal(err)
		}
		in.Reset(seed)
		if err := in.BeginRun(50, horizon); err != nil {
			t.Fatal(err)
		}
		in.Store()
		insts[i] = in
	}
	for slice, end := 0, 10.0; end <= horizon; slice, end = slice+1, end+10 {
		for i, in := range insts {
			if err := in.Bind(progs[(slice+i)%2]); err != nil {
				t.Fatal(err)
			}
			for in.HasPendingEvents() && in.PeekNextEventTime() < end {
				in.ProcessNextEvent()
			}
			in.Store()
		}
	}
	for i, in := range insts {
		if err := in.Bind(progs[i%2]); err != nil {
			t.Fatal(err)
		}
		got, err := in.EndRun()
		if err != nil {
			t.Fatal(err)
		}
		if got.Events != alone[i].Events || got.Firings != alone[i].Firings {
			t.Errorf("seed %d: %d events %d firings, alone %d and %d", seeds[i], got.Events, got.Firings, alone[i].Events, alone[i].Firings)
		}
		for name, w := range alone[i].Rates {
			if g := got.Rates[name]; g != w {
				t.Errorf("seed %d: rate %s = %x, alone %x", seeds[i], name, g, w)
			}
		}
		for name, w := range alone[i].Impulses {
			if g := got.Impulses[name]; g != w {
				t.Errorf("seed %d: impulse %s = %x, alone %x", seeds[i], name, g, w)
			}
		}
		if n := serveCount(progs[i%2].Model()); n != aloneServed[i] {
			t.Errorf("seed %d: serve completed %d times, alone %d", seeds[i], n, aloneServed[i])
		}
	}
}

// TestInstanceBindRejectsOtherModel checks that Bind refuses a program
// compiled from a model of a different shape.
func TestInstanceBindRejectsOtherModel(t *testing.T) {
	in, err := compileReset(buildJobShop(), 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Compile(buildTandem(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Bind(other); err == nil || !strings.Contains(err.Error(), "differ in shape") {
		t.Fatalf("Bind to another model: err = %v, want the shape error", err)
	}
}
