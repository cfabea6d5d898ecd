package main

import (
	"context"
	"time"

	"vcpusim/internal/core"
	"vcpusim/internal/experiments"
	"vcpusim/internal/fastsim"
	"vcpusim/internal/faults"
	"vcpusim/internal/obs"
	"vcpusim/internal/sim"
)

// passOut is what one pass of a workload produced.
type passOut struct {
	// wall runs from the pass's first simulated event to its last; model
	// building done in setup is outside it.
	wall time.Duration
	// hostTicks sums hosts × horizon over every replication of the pass.
	hostTicks float64
	reps      int
	digest    string
	// counts holds work counts and the traffic properties the workload's
	// check reads.
	counts map[string]float64
	// allocBytes is the heap allocated during the pass.
	allocBytes float64
}

// traceOut is what one traced pass adds beyond its passOut: the span
// subtrees land in the Tracer; these are the counts read next to them.
type traceOut struct {
	wall  time.Duration
	slots int
	reps  int
	ticks float64
	// Engine work counts summed over replications.
	inst, scheduled, cancelled, injects, fastSchedIns float64
	maxDepth                                          float64
}

// fold records every replication of the slots as span subtrees caused by
// span cause, and sums their counts.
func (to *traceOut) fold(tr *Tracer, cause int, slots []*slot, fast bool) {
	for _, s := range slots {
		if s.build > 0 {
			tr.AddCaused(cause, spanBuild, s.buildStart, s.build, 1)
		}
		for _, rt := range s.reps {
			tr.addRep(cause, rt, fast)
			to.reps++
			to.ticks += rt.ticks
			to.inst += rt.inst
			to.scheduled += rt.scheduled
			to.cancelled += rt.cancelled
			to.injects += rt.injects
			to.fastSchedIns += rt.fastSchedIns
			to.maxDepth = max(to.maxDepth, rt.maxDepth)
		}
	}
}

// slot is one sim worker slot of a traced pass. Its replicator runs on
// one goroutine; the records are read after sim.RunPooled returns.
type slot struct {
	cur               *repTrace
	reps              []*repTrace
	buildStart, build time.Duration
}

// sanReplicator builds the slot's core.Worker with a timed scheduler and
// the gate hooks, and returns a replicator that drives each replication
// through Arm, the step primitives and Collect. efficiency adds the
// experiments package's derived metric, as its replicators do; a non-nil
// prep adjusts the freshly built worker before its first replication.
func (s *slot) sanReplicator(cfg core.SystemConfig, f core.SchedulerFactory, algo string, warmup, horizon float64, efficiency bool, prep func(*core.Worker) error) (sim.Replicator, error) {
	s.cur = &repTrace{}
	s.buildStart = obs.Clock()
	w, err := core.NewWorker(cfg, timedFactory(f, &s.cur))
	if err != nil {
		return nil, err
	}
	s.build = obs.Clock() - s.buildStart
	if prep != nil {
		if err := prep(w); err != nil {
			return nil, err
		}
	}
	hookGate(w.Instance(), &s.cur)
	return func(ctx context.Context, _ int, seed uint64) (map[string]float64, error) {
		rt := &repTrace{algo: algo, start: obs.Clock(), ticks: horizon - warmup}
		s.cur = rt
		if err := w.Arm(seed); err != nil {
			return nil, err
		}
		m, err := runSteps(w, warmup, horizon, rt)
		if err != nil {
			return nil, err
		}
		if efficiency {
			addEfficiency(m)
		}
		rt.rep = obs.Clock() - rt.start
		st := w.LastStats()
		rt.inst = float64(st.InstFirings)
		rt.scheduled = float64(st.EventsScheduled)
		rt.cancelled = float64(st.EventsCancelled)
		rt.maxDepth = float64(st.MaxStabilizeDepth)
		rt.injects = m[faults.InjectsMetric]
		s.reps = append(s.reps, rt)
		return m, nil
	}, nil
}

// fastReplicator returns a replicator that builds a fast engine around a
// timed scheduler per replication, as the experiments package does.
func (s *slot) fastReplicator(cfg core.SystemConfig, f core.SchedulerFactory, algo string, horizon int64) sim.Replicator {
	return func(ctx context.Context, _ int, seed uint64) (map[string]float64, error) {
		rt := &repTrace{algo: algo, start: obs.Clock(), ticks: float64(horizon)}
		eng, err := fastsim.New(cfg, &timedScheduler{inner: f(), acc: rt}, seed)
		if err != nil {
			return nil, err
		}
		t := obs.Clock()
		m, err := eng.RunInterval(0, horizon)
		rt.loop = obs.Clock() - t
		if err != nil {
			return nil, err
		}
		addEfficiency(m)
		rt.rep = obs.Clock() - rt.start
		rt.fastSchedIns = float64(eng.Stats().ScheduleIns)
		s.reps = append(s.reps, rt)
		return m, nil
	}
}

// addEfficiency adds experiments.EfficiencyMetric (VCPU utilization per
// unit of availability) to a replication's metric map, the way the
// experiments package's replicators do.
func addEfficiency(m map[string]float64) {
	if avail := m[core.AvailabilityAvgMetric]; avail > 0 {
		m[experiments.EfficiencyMetric] = m[core.VCPUUtilizationAvgMetric] / avail
	} else {
		m[experiments.EfficiencyMetric] = 0
	}
}
