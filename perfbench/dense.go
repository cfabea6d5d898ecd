package main

import (
	"context"
	"fmt"
	"time"

	"vcpusim/internal/core"
	"vcpusim/internal/faults"
	"vcpusim/internal/obs"
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sched"
	"vcpusim/internal/sim"
	"vcpusim/internal/workload"
)

// The dense host: 16 VCPUs (the model's slot maximum) in VMs of 8, 4, 2
// and 2 VCPUs on 8 PCPUs under RCS and contract v2, with a recurring
// PCPU-crash and VCPU-stall campaign.
const (
	densePCPUs   = 8
	denseHorizon = 5000
	denseMaxReps = 40
)

var denseWidths = []int{8, 4, 2, 2}

// denseSyncs are the VMs' sync ratios (1:5 for the 8-VCPU VM down to 1:2).
var denseSyncs = []int{5, 4, 3, 2}

// denseConfig generates the dense host for variant v: the seed picks the
// crashing PCPU and the stalling VCPU (one of the 8-VCPU VM's), targets
// that are alike, so the work per tick stays comparable across variants.
func denseConfig(v int) (core.SystemConfig, error) {
	r := rng.New(0xDE4E0000 + uint64(v))
	cfg := core.SystemConfig{PCPUs: densePCPUs, Timeslice: timeslice, Contract: san.ContractV2}
	vcpus := 0
	for i, n := range denseWidths {
		cfg.VMs = append(cfg.VMs, core.VMConfig{
			Name:     fmt.Sprintf("VM%d", i+1),
			VCPUs:    n,
			Workload: workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: denseSyncs[i]},
		})
		vcpus += n
	}
	cfg.Faults = &faults.Plan{Faults: []faults.Spec{
		{
			Name: "crash", Kind: faults.KindPCPUCrash, PCPU: r.Intn(densePCPUs),
			Every:    &faults.Dist{Dist: "exponential", Rate: 1.0 / 400},
			Duration: &faults.Dist{Dist: "uniform", Low: 20, High: 80},
			Count:    1 << 20,
		},
		{
			Name: "stall", Kind: faults.KindVCPUStall, VCPU: r.Intn(denseWidths[0]),
			Every:    &faults.Dist{Dist: "exponential", Rate: 1.0 / 250},
			Duration: &faults.Dist{Dist: "uniform", Low: 5, High: 30},
			Count:    1 << 20,
		},
	}}
	if err := cfg.Faults.Validate(cfg.PCPUs, vcpus); err != nil {
		return core.SystemConfig{}, err
	}
	return cfg, cfg.Validate()
}

// denseJob runs the dense host under the stopping rule, nproc
// replications in flight.
type denseJob struct {
	cfg     core.SystemConfig
	seed    uint64
	par     int
	workers []*core.Worker
}

func newDenseJob(v, par int) (job, error) {
	cfg, err := denseConfig(v)
	if err != nil {
		return nil, err
	}
	return &denseJob{cfg: cfg, seed: 1 + uint64(v), par: par}, nil
}

func (j *denseJob) engineName() string { return "san" }

func (j *denseJob) factory() (core.SchedulerFactory, error) {
	return sched.Factory("RCS", sched.Params{Timeslice: timeslice})
}

func (j *denseJob) simOptions() sim.Options {
	return sim.Options{MinReps: minReps, MaxReps: denseMaxReps, Parallelism: j.par, Seed: j.seed}
}

// setup compiles one worker per replication slot.
func (j *denseJob) setup() (int, error) {
	f, err := j.factory()
	if err != nil {
		return 0, err
	}
	j.workers = j.workers[:0]
	for i := 0; i < j.par; i++ {
		w, err := core.NewWorker(j.cfg, f)
		if err != nil {
			return 0, err
		}
		j.workers = append(j.workers, w)
	}
	return j.par, nil
}

func (j *denseJob) pass(ctx context.Context, _ obs.Sink) (passOut, error) {
	depth := make([]uint64, len(j.workers))
	next := 0
	factory := func() (sim.Replicator, error) {
		if next >= len(j.workers) {
			return nil, fmt.Errorf("perfbench: more worker slots than compiled workers")
		}
		k, w := next, j.workers[next]
		next++
		return func(ctx context.Context, _ int, seed uint64) (map[string]float64, error) {
			m, err := w.RunIntervalContext(ctx, 0, denseHorizon, seed)
			depth[k] = max(depth[k], w.LastStats().MaxStabilizeDepth)
			return m, err
		}, nil
	}
	start := obs.Clock()
	sum, err := sim.RunPooled(ctx, factory, j.simOptions())
	if err != nil {
		return passOut{}, err
	}
	out := j.summarize(obs.Clock()-start, sum)
	for _, d := range depth {
		out.counts["max_stabilize_depth"] = max(out.counts["max_stabilize_depth"], float64(d))
	}
	return out, nil
}

func (j *denseJob) summarize(wall time.Duration, sum sim.Summary) passOut {
	var d digester
	for _, name := range sum.MetricNames() {
		iv, _ := sum.Metric(name)
		d.interval(name, iv)
	}
	return passOut{
		wall:      wall,
		reps:      sum.Replications,
		hostTicks: float64(sum.Replications) * denseHorizon,
		digest:    d.sum(),
		counts: map[string]float64{
			"injects_per_rep":     sum.Mean(faults.InjectsMetric),
			"max_stabilize_depth": 0,
		},
	}
}

// check: faults were injected, and the deepest stabilization exceeds
// that of every paper grid cell.
func (j *denseJob) check(p passOut) (string, error) {
	paperDepth, err := paperMaxDepth()
	if err != nil {
		return "", err
	}
	inj, depth := p.counts["injects_per_rep"], p.counts["max_stabilize_depth"]
	msg := fmt.Sprintf("traffic: %.4g fault injections per replication, stabilization depth %g (paper grids: %g)", inj, depth, paperDepth)
	switch {
	case inj <= 0:
		return msg, fmt.Errorf("no fault was injected")
	case depth <= paperDepth:
		return msg, fmt.Errorf("stabilization depth %g does not exceed the paper grids' %g", depth, paperDepth)
	}
	return msg, nil
}

// paperMaxDepth is the deepest stabilization any paper grid cell reaches
// in three short SAN replications.
func paperMaxDepth() (float64, error) {
	var depth uint64
	for _, c := range paperCells() {
		f, err := sched.Factory(c.algo, sched.Params{Timeslice: timeslice})
		if err != nil {
			return 0, err
		}
		w, err := core.NewWorker(c.cfg, f)
		if err != nil {
			return 0, err
		}
		for seed := uint64(1); seed <= 3; seed++ {
			if _, err := w.Run(paperHorizon, seed); err != nil {
				return 0, err
			}
			depth = max(depth, w.LastStats().MaxStabilizeDepth)
		}
	}
	return float64(depth), nil
}

func (j *denseJob) tracedPass(ctx context.Context, tr *Tracer) (passOut, traceOut, error) {
	f, err := j.factory()
	if err != nil {
		return passOut{}, traceOut{}, err
	}
	start := obs.Clock()
	pass := tr.Add(-1, spanPass, start, 0, 1)
	var slots []*slot
	factory := func() (sim.Replicator, error) {
		s := &slot{}
		slots = append(slots, s)
		return s.sanReplicator(j.cfg, f, "RCS", 0, denseHorizon, false, nil)
	}
	sum, err := sim.RunPooled(ctx, factory, j.simOptions())
	if err != nil {
		return passOut{}, traceOut{}, err
	}
	wall := obs.Clock() - start
	tr.spans[pass].Dur = int64(wall)
	var to traceOut
	to.fold(tr, pass, slots, false)
	to.wall, to.slots = wall, j.par
	out := j.summarize(wall, sum)
	out.counts["max_stabilize_depth"] = to.maxDepth
	return out, to, nil
}
