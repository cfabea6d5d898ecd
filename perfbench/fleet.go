package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"vcpusim/internal/cluster"
	"vcpusim/internal/config"
	"vcpusim/internal/core"
	"vcpusim/internal/obs"
	"vcpusim/internal/rng"
)

// The fleet: about a thousand hosts in two groups, run one replication at
// a time under contract v1.
const (
	fleetHosts   = 1000
	fleetHorizon = 150
	// bareReps is how many replications each host shape runs alone for
	// the bare-host baseline.
	bareReps = 100
)

// fleetTopology generates the fleet for variant v. Group "rrs" holds
// 2-PCPU RRS hosts whose resident VMs overload them: they are the
// migration sources and take the 2-VCPU arrivals. Group "rcs" holds
// 4-PCPU RCS hosts with a resident 2-VCPU VM and a parked 1-VCPU slot:
// they take the 1-VCPU arrivals and migrations. An RCS host provisions
// at most 3 VCPUs, so it never crosses the migration threshold: draining
// a co-scheduled VM off an RCS host fails the replication (see
// testdata/rcs-migration-source.json), a defect this workload does not
// measure. The seed moves the group split and the arrival waves by a few
// hosts, VMs and ticks; the host count, horizon, slot shapes and sync
// ratio (1:5) stay fixed so the work is comparable across variants. The result has
// been through cluster.ParseTopology, so defaults are applied and
// Validate passed.
func fleetTopology(v int) (*cluster.Topology, error) {
	r := rng.New(0xF1EE7000 + uint64(v))
	slot := func(vcpus, count int, admitted bool) cluster.Slot {
		return cluster.Slot{
			VM: config.VM{
				VCPUs:      vcpus,
				Load:       config.Distribution{Dist: "uniform", Low: 1, High: 10},
				SyncEveryN: 5,
			},
			Count:    count,
			Admitted: admitted,
		}
	}
	nRRS := fleetHosts/2 - 5 + r.Intn(11)
	topo := cluster.Topology{
		Name:      fmt.Sprintf("perfbench-fleet-%d", v),
		Contract:  1,
		Horizon:   fleetHorizon,
		Placement: "least-loaded",
		Seed:      1 + uint64(v),
		Hosts: []cluster.HostGroup{
			{
				Name: "rrs", Count: nRRS, PCPUs: 2, Scheduler: config.Scheduler{Name: "RRS"},
				Slots: []cluster.Slot{slot(1, 1, true), slot(2, 1, true), slot(2, 1, false)},
			},
			{
				Name: "rcs", Count: fleetHosts - nRRS, PCPUs: 4, Scheduler: config.Scheduler{Name: "RCS"},
				Slots: []cluster.Slot{slot(2, 1, true), slot(1, 1, false)},
			},
		},
		Arrivals: []cluster.Arrival{
			{At: float64(fleetHorizon/5 + r.Intn(11)), Count: fleetHosts/4 - 5 + r.Intn(11), VCPUs: 1},
			{At: float64(fleetHorizon/2 + r.Intn(11)), Count: fleetHosts/8 - 5 + r.Intn(11), VCPUs: 2},
		},
		Migration: &cluster.Migration{CheckEvery: 25, HighUtil: 0.85, LowUtil: 0.6, TransferDelay: 10},
	}
	data, err := json.Marshal(&topo)
	if err != nil {
		return nil, err
	}
	return cluster.ParseTopology(bytes.NewReader(data))
}

// fleetJob replicates the fleet through one orchestrator.
type fleetJob struct {
	topo *cluster.Topology
	o    *cluster.Orchestrator
}

func newFleetJob(v, _ int) (job, error) {
	topo, err := fleetTopology(v)
	if err != nil {
		return nil, err
	}
	return &fleetJob{topo: topo}, nil
}

func (j *fleetJob) engineName() string { return "san" }

// setup compiles every host: one cluster.New.
func (j *fleetJob) setup() (int, error) {
	j.o = nil
	o, err := cluster.New(j.topo)
	if err != nil {
		return 0, err
	}
	j.o = o
	return o.NumHosts(), nil
}

// pass runs one fleet replication; every pass repeats the same seed.
func (j *fleetJob) pass(ctx context.Context, _ obs.Sink) (passOut, error) {
	start := obs.Clock()
	m, err := j.o.Replicate(ctx, j.topo.Seed)
	if err != nil {
		return passOut{}, err
	}
	wall := obs.Clock() - start
	var d digester
	d.metrics("fleet", m)
	for h := 0; h < j.o.NumHosts(); h++ {
		d.metrics(fmt.Sprintf("host%d", h), j.o.HostMetrics(h))
	}
	return passOut{
		wall:      wall,
		reps:      1,
		hostTicks: float64(j.o.NumHosts()) * j.topo.Horizon,
		digest:    d.sum(),
		counts: map[string]float64{
			"migrations": m[cluster.MigrationsMetric],
			"dispatches": m[cluster.DispatchesMetric],
			"place_wait": m[cluster.PlaceWaitMetric],
			"queued":     m[cluster.QueuedAtEndMetric],
		},
	}, nil
}

// check: VMs were both dispatched and migrated.
func (j *fleetJob) check(p passOut) (string, error) {
	mig, disp := p.counts["migrations"], p.counts["dispatches"]
	msg := fmt.Sprintf("traffic: %d hosts, %g migrations, %g dispatches, %g VMs queued at the end", j.o.NumHosts(), mig, disp, p.counts["queued"])
	if mig <= 0 || disp <= 0 {
		return msg, fmt.Errorf("the fleet needs migrations and dispatches, got %g and %g", mig, disp)
	}
	return msg, nil
}

// bareHost is one host shape of the fleet driven alone through its own
// core.Worker, with the fleet's initial slot occupancy.
type bareHost struct {
	count int // hosts of this shape in the fleet
	algo  string
	cfg   core.SystemConfig
	f     core.SchedulerFactory
	park  []bool
}

// bareHosts expands each host group into its bare shape.
func (j *fleetJob) bareHosts() ([]bareHost, error) {
	var out []bareHost
	for g, hg := range j.topo.Hosts {
		b := bareHost{count: hg.Count, algo: hg.Scheduler.Name,
			cfg: core.SystemConfig{PCPUs: hg.PCPUs, Timeslice: hg.Timeslice, Contract: j.topo.Contract, Faults: hg.Faults}}
		for _, s := range hg.Slots {
			vm, err := s.VMConfig()
			if err != nil {
				return nil, fmt.Errorf("host group %d: %w", g, err)
			}
			for k := 0; k < s.Count; k++ {
				vm.Name = fmt.Sprintf("slot%d", len(b.cfg.VMs))
				b.cfg.VMs = append(b.cfg.VMs, vm)
				b.park = append(b.park, !s.Admitted)
			}
		}
		f, err := (&config.Experiment{Timeslice: hg.Timeslice, Scheduler: hg.Scheduler}).SchedulerFactory()
		if err != nil {
			return nil, err
		}
		b.f = f
		out = append(out, b)
	}
	return out, nil
}

// parkSlots parks the slots the fleet starts parked: hidden from the
// scheduler, their workload generators off.
func parkSlots(w *core.Worker, park []bool) error {
	for i, p := range park {
		if !p {
			continue
		}
		if err := w.System().SetVMParked(i, true); err != nil {
			return err
		}
		if err := w.Instance().SetActivityEnabled(w.System().GenerateActivityName(i), false); err != nil {
			return err
		}
	}
	return nil
}

// bareNSPerHostTick drives each host shape alone for bareReps
// replications of the fleet's horizon, untraced, and returns the
// fleet-weighted wall time per host-tick.
func (j *fleetJob) bareNSPerHostTick() (float64, error) {
	shapes, err := j.bareHosts()
	if err != nil {
		return 0, err
	}
	var ns, hosts float64
	for _, b := range shapes {
		w, err := core.NewWorker(b.cfg, b.f)
		if err != nil {
			return 0, err
		}
		if err := parkSlots(w, b.park); err != nil {
			return 0, err
		}
		start := obs.Clock()
		for r := 0; r < bareReps; r++ {
			if _, err := w.Run(j.topo.Horizon, uint64(r)+1); err != nil {
				return 0, err
			}
		}
		per := float64(obs.Clock()-start) / (bareReps * j.topo.Horizon)
		ns += per * float64(b.count)
		hosts += float64(b.count)
	}
	return ns / hosts, nil
}

// tracedPass replicates the fleet with the scheduling gate timed on
// every host — its digest must match the untraced pass, which shows the
// hooks leave the trajectory alone — and then drives each host shape
// alone through the traced step loop for the per-layer split of host
// time, which the orchestrator does not expose.
func (j *fleetJob) tracedPass(ctx context.Context, tr *Tracer) (passOut, traceOut, error) {
	var to traceOut
	start := obs.Clock()
	pass := tr.Add(-1, spanPass, start, 0, 1)
	gates := &repTrace{}
	for h := 0; h < j.o.NumHosts(); h++ {
		hookGate(j.o.Host(h).Instance(), &gates)
	}
	out, err := j.pass(ctx, nil)
	for h := 0; h < j.o.NumHosts(); h++ {
		j.o.Host(h).Instance().SetFireHooks(nil, nil)
	}
	if err != nil {
		return passOut{}, to, err
	}
	fleet := tr.Add(pass, spanFleet, start, out.wall, 1)
	tr.Add(fleet, spanFleetGate, start, gates.gate, gates.gateN)

	shapes, err := j.bareHosts()
	if err != nil {
		return passOut{}, to, err
	}
	for _, b := range shapes {
		s := &slot{}
		park := b.park
		rep, err := s.sanReplicator(b.cfg, b.f, b.algo, 0, j.topo.Horizon, false, func(w *core.Worker) error { return parkSlots(w, park) })
		if err != nil {
			return passOut{}, to, err
		}
		for r := 0; r < bareReps; r++ {
			if _, err := rep(ctx, r, uint64(r)+1); err != nil {
				return passOut{}, to, err
			}
		}
		to.fold(tr, pass, []*slot{s}, false)
	}
	to.wall = out.wall
	to.slots = 1
	tr.spans[pass].Dur = int64(obs.Clock() - start)
	return out, to, nil
}
