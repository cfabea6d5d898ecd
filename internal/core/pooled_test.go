package core_test

import (
	"context"
	"strconv"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/sched"
)

// TestPooledEquivalence verifies a Worker reused across replications
// reproduces the fresh build-per-replication path bit for bit: for every
// golden cell and a run of seeds (with repeats), the pooled metrics must
// equal RunReplication's at full float precision.
func TestPooledEquivalence(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			w, err := core.NewWorker(tc.cfg, tc.factory)
			if err != nil {
				t.Fatal(err)
			}
			const horizon = 2000
			seeds := []uint64{tc.seed, tc.seed + 1, 99, tc.seed} // repeat: no memory across resets
			for i, seed := range seeds {
				want, err := core.RunReplication(tc.cfg, tc.factory, horizon, seed)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.Run(horizon, seed)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("rep %d seed %d: pooled has %d metrics, fresh %d", i, seed, len(got), len(want))
				}
				for name, fv := range want {
					pv, ok := got[name]
					if !ok {
						t.Fatalf("rep %d seed %d: pooled missing metric %s", i, seed, name)
					}
					if pv != fv {
						// Hex floats make a one-ULP drift visible.
						t.Errorf("rep %d seed %d metric %s: pooled %s, fresh %s",
							i, seed, name,
							strconv.FormatFloat(pv, 'x', -1, 64),
							strconv.FormatFloat(fv, 'x', -1, 64))
					}
				}
			}
		})
	}
}

// TestPooledEquivalenceWithWarmup covers the interval path: warmup
// snapshotting must also replay identically through a reused worker.
func TestPooledEquivalenceWithWarmup(t *testing.T) {
	cfg := benchFig8Config(2)
	factory := func() core.Scheduler { return sched.NewRoundRobin(30) }
	w, err := core.NewWorker(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	const warmup, horizon = 300, 2000
	for _, seed := range []uint64{1, 5, 1} {
		want, err := core.RunReplicationInterval(cfg, factory, warmup, horizon, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.RunIntervalContext(context.Background(), warmup, horizon, seed)
		if err != nil {
			t.Fatal(err)
		}
		for name, fv := range want {
			if pv := got[name]; pv != fv {
				t.Errorf("seed %d metric %s: pooled %s, fresh %s", seed, name,
					strconv.FormatFloat(pv, 'x', -1, 64),
					strconv.FormatFloat(fv, 'x', -1, 64))
			}
		}
	}
}

// TestWorkersTakeTurnsOnShapes runs three hosts' replications in slices
// of 50 ticks on two shapes of one configuration, binding each worker
// to whichever shape is free and storing it back after every slice, with
// histograms on for one worker. Every replication must equal the same
// seed run alone, fault campaign and histogram quantiles included: a
// shape keeps no state of the host that ran on it last.
func TestWorkersTakeTurnsOnShapes(t *testing.T) {
	tc := goldenFaultCases()[1]
	const horizon = 5000.0 // past the campaign's misdecision window at t=4000
	seeds := []uint64{tc.seed, 40, 41}
	want := make([]map[string]float64, len(seeds))
	for i, seed := range seeds {
		w, err := core.NewWorker(tc.cfg, tc.factory)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			w.EnableHistograms()
		}
		if want[i], err = w.Run(horizon, seed); err != nil {
			t.Fatal(err)
		}
	}

	var shapes [2]*core.Shape
	for i := range shapes {
		sh, err := core.NewShape(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		shapes[i] = sh
	}
	workers := make([]*core.Worker, len(seeds))
	for i, seed := range seeds {
		w, err := shapes[0].NewWorker(tc.factory)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			w.EnableHistograms()
		}
		if err := w.Bind(shapes[i%2]); err != nil {
			t.Fatal(err)
		}
		if err := w.Arm(seed); err != nil {
			t.Fatal(err)
		}
		if err := w.Instance().BeginRun(0, horizon); err != nil {
			t.Fatal(err)
		}
		w.Unbind()
		workers[i] = w
	}
	for slice, end := 0, 50.0; end <= horizon; slice, end = slice+1, end+50 {
		for i, w := range workers {
			if err := w.Bind(shapes[(slice+i)%2]); err != nil {
				t.Fatal(err)
			}
			in := w.Instance()
			for in.HasPendingEvents() && in.PeekNextEventTime() < end {
				in.ProcessNextEvent()
			}
			w.Unbind()
		}
	}
	for i, w := range workers {
		if err := w.Bind(shapes[0]); err != nil {
			t.Fatal(err)
		}
		got, err := w.Collect()
		if err != nil {
			t.Fatal(err)
		}
		w.Unbind()
		if len(got) != len(want[i]) {
			t.Fatalf("seed %d: %d metrics, alone %d", seeds[i], len(got), len(want[i]))
		}
		for name, v := range want[i] {
			if got[name] != v {
				t.Errorf("seed %d metric %s: %s, alone %s", seeds[i], name,
					strconv.FormatFloat(got[name], 'x', -1, 64), strconv.FormatFloat(v, 'x', -1, 64))
			}
		}
	}
}

// TestBindRules checks the binding protocol's errors: a shape runs one
// worker at a time, and a worker runs on one shape at a time.
func TestBindRules(t *testing.T) {
	cfg := benchFig8Config(2)
	factory := func() core.Scheduler { return sched.NewRoundRobin(30) }
	a, err := core.NewShape(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewShape(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := a.NewWorker(factory)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := a.NewWorker(factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Arm(1); err == nil {
		t.Error("an unbound worker armed")
	}
	if err := w1.Bind(a); err != nil {
		t.Fatal(err)
	}
	if err := w1.Bind(a); err != nil {
		t.Errorf("rebinding the bound shape: %v", err)
	}
	if err := w2.Bind(a); err == nil {
		t.Error("a second worker bound to a bound shape")
	}
	if err := w1.Bind(b); err == nil {
		t.Error("a bound worker bound to a second shape")
	}
	w1.Unbind()
	if err := w2.Bind(a); err != nil {
		t.Errorf("binding a freed shape: %v", err)
	}
}
