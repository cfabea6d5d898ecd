package core

import (
	"context"
	"fmt"
	"maps"
	"time"

	"vcpusim/internal/faults"
	"vcpusim/internal/obs"
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/workload"
)

// Shape is one host model built and compiled once: the SAN model with its
// gate closures, the compiled san.Program, and the System wiring. It holds
// no host's state. A Worker binds its state into the shape to run on it
// (Worker.Bind) and stores it back when done (Worker.Unbind), so one shape
// serves any number of hosts of its configuration, one at a time. Gate
// closures keep reading the shape's own places and fields; binding copies
// the host's state into them.
type Shape struct {
	sys   *System
	prog  *san.Program
	bound *Worker
}

// NewShape builds and compiles the system model for cfg.
func NewShape(cfg SystemConfig) (*Shape, error) {
	sys, err := buildShape(cfg)
	if err != nil {
		return nil, err
	}
	prog, err := san.Compile(sys.model, san.WithContract(cfg.Contract))
	if err != nil {
		return nil, err
	}
	return &Shape{sys: sys, prog: prog}, nil
}

// System returns the shape's system, which reads and writes the state of
// the worker bound to the shape.
func (s *Shape) System() *System { return s.sys }

// Worker is one host's own state, and the compile-once, run-many
// replication executive over it. The state is the host's san.Instance —
// marking, kernel, RNG, rewards, disabled activities, hooks — plus its
// scheduler, workload streams, parked flags, fault runtime, fault sink,
// histograms, flight recorder and tick clock. Each replication only
// reseeds the streams, constructs a fresh scheduler, and resets the
// instance. Results are bit-identical to building everything fresh per
// replication (RunReplication*): the reseed replays the fresh build's RNG
// draw order exactly.
//
// A worker runs on the Shape it is bound to. NewWorker builds a shape for
// the worker alone and binds it for good; the cluster keeps one state per
// host and binds each, in turn, to a shape of its group. A Worker is not
// goroutine-safe, and a shape runs one bound worker at a time: parallel
// replications need a shape per goroutine (sim.RunPooled gives each
// goroutine its own Worker).
type Worker struct {
	sh *Shape // the shape the worker is or was last bound to
	// bound is set while the worker's state is loaded into sh. The worker
	// keeps it, not sh: the shape it last ran on may be another
	// goroutine's by now.
	bound   bool
	inst    *san.Instance
	factory SchedulerFactory
	src     *rng.Source

	// The host state a bound shape's System holds; stored here while the
	// worker is unbound. faultSink is the fault injector's sink.
	vars      hostVars
	gens      []*workload.Generator
	flt       *faultRuntime
	faultSink obs.Sink
}

// NewWorker builds and compiles the system for cfg once and binds a new
// host state to it for good. The returned worker runs any number of
// replications, each a pure function of its seed.
func NewWorker(cfg SystemConfig, factory SchedulerFactory) (*Worker, error) {
	sh, err := NewShape(cfg)
	if err != nil {
		return nil, err
	}
	w, err := sh.NewWorker(factory)
	if err != nil {
		return nil, err
	}
	if err := w.Bind(sh); err != nil {
		return nil, err
	}
	return w, nil
}

// NewWorker creates a new host state for the shape's configuration: its
// own SAN instance, with the fault plan's Disabled flags applied, its own
// workload streams and fault runtime. The worker is unbound; Bind it to
// this shape, or to any shape built from the same configuration, before
// arming it. The streams are placeholders: Arm reseeds every one from the
// replication seed before anything is sampled.
func (s *Shape) NewWorker(factory SchedulerFactory) (*Worker, error) {
	if factory == nil {
		return nil, fmt.Errorf("core: nil scheduler factory")
	}
	inst, err := s.prog.NewInstance()
	if err != nil {
		return nil, err
	}
	// Honor the plan's Disabled flags once: the administrative disable
	// persists across Reset, covering every replication.
	if err := s.sys.ArmInstance(inst); err != nil {
		return nil, err
	}
	w := &Worker{sh: s, inst: inst, factory: factory, src: rng.New(0)}
	w.gens = make([]*workload.Generator, len(s.sys.vms))
	for i := range w.gens {
		if w.gens[i], err = workload.NewGenerator(s.sys.cfg.VMs[i].Workload, rng.New(0)); err != nil {
			return nil, fmt.Errorf("core: VM %s: %w", s.sys.cfg.VMName(i), err)
		}
	}
	if flt := s.sys.flt; flt != nil {
		w.flt = newFaultRuntime(flt.plan, len(flt.down), len(flt.stalled))
	}
	return w, nil
}

// Bind loads the worker's host state into shape s, which must be built
// from the worker's configuration: the instance moves onto s's program
// and loads its marking there (san.Instance.Bind), and s's System takes
// the worker's scheduler, workload streams, parked flags, fault runtime,
// fault sink, histograms, flight recorder and tick clock. Pointers are
// swapped; the fault runtime, which gate closures hold, is copied into
// the shape's. Binding a worker to the shape it is bound to does
// nothing; a worker bound elsewhere, or a shape bound to another worker,
// is an error.
func (w *Worker) Bind(s *Shape) error {
	if w.bound {
		if w.sh == s {
			return nil
		}
		return fmt.Errorf("core: worker is bound to another shape")
	}
	if s.bound != nil {
		return fmt.Errorf("core: shape is bound to another worker")
	}
	if err := w.inst.Bind(s.prog); err != nil {
		return err
	}
	sys := s.sys
	sys.hostVars = w.vars
	for i, vm := range sys.vms {
		vm.gen = w.gens[i]
	}
	if sys.flt != nil {
		*sys.flt = *w.flt
	}
	if sys.inj != nil {
		sys.inj.SetSink(w.faultSink)
		sys.inj.SetFlightRecorder(w.vars.rec)
	}
	w.sh, w.bound, s.bound = s, true, w
	return nil
}

// Unbind stores the host state the worker's shape holds back into the
// worker — the marking (san.Instance.Store), the fault runtime, and the
// scheduler, parked flags, inspection hooks and tick clock — and frees
// the shape for another worker. An unbound worker stays as it is.
func (w *Worker) Unbind() {
	if !w.bound {
		return
	}
	sys := w.sh.sys
	w.inst.Store()
	w.vars = sys.hostVars
	if sys.flt != nil {
		*w.flt = *sys.flt
	}
	w.sh.bound, w.bound = nil, false
}

// liveVars returns where the worker's host fields live right now: in the
// shape's System while bound, on the worker otherwise.
func (w *Worker) liveVars() *hostVars {
	if w.bound {
		return &w.sh.sys.hostVars
	}
	return &w.vars
}

// System returns the system of the worker's shape, which holds the
// worker's state while it is bound; callers must not mutate the marking.
// An unbound worker's System holds another host's state, or none.
func (w *Worker) System() *System { return w.sh.sys }

// Program returns the compiled SAN program the worker executes (activity
// names for per-activity stats, model access).
func (w *Worker) Program() *san.Program { return w.inst.Program() }

// SetClock injects a monotonic wall clock (obs.Clock) into the pooled
// instance so LastStats reports wall time and events/s; nil disables.
func (w *Worker) SetClock(fn func() time.Duration) { w.inst.SetClock(fn) }

// EnableActivityStats turns on the pooled instance's per-activity firing
// counters (indexed like Program().ActivityNames()).
func (w *Worker) EnableActivityStats() { w.inst.EnableActivityStats() }

// LastStats returns the engine counters of the most recent replication
// (counters reset at the start of each one).
func (w *Worker) LastStats() san.Stats { return w.inst.Stats() }

// SetFaultSink installs a telemetry sink receiving fault.inject /
// fault.recover spans from the system's fault injector; nil removes it.
// No-op on a system without a fault plan. The sink is the worker's: it
// follows the worker to whatever shape it is bound to.
func (w *Worker) SetFaultSink(s obs.Sink) {
	w.faultSink = s
	if inj := w.sh.sys.inj; inj != nil && w.bound {
		inj.SetSink(s)
	}
}

// RunIntervalContext executes one replication seeded with seed, measuring
// rewards over [warmup, horizon] and honoring ctx cancellation. It is the
// pooled equivalent of RunReplicationIntervalContext with the same
// arguments, bit for bit.
func (w *Worker) RunIntervalContext(ctx context.Context, warmup, horizon float64, seed uint64) (map[string]float64, error) {
	if err := w.Arm(seed); err != nil {
		return nil, err
	}
	res, err := w.inst.RunIntervalContext(ctx, warmup, horizon)
	if err != nil {
		return nil, err
	}
	return w.assemble(res), nil
}

// Arm prepares the worker for one replication seeded with seed — the
// reseed-and-reset half of RunIntervalContext, bit for bit — without
// running it. An external driver (the cluster orchestrator) then starts
// the run itself via Instance().BeginRun, steps events through the step
// primitives, and finishes with Collect.
func (w *Worker) Arm(seed uint64) error {
	if !w.bound {
		return fmt.Errorf("core: arming a worker that is not bound to a shape")
	}
	w.src.Reseed(seed)
	if err := w.sh.sys.Reseed(w.factory(), w.src); err != nil {
		return err
	}
	w.inst.Reset(w.src.Uint64())
	return nil
}

// Collect finishes an externally driven replication: it ends the run
// started on the worker's instance and assembles the same metric map
// RunIntervalContext produces, including derived fault metrics and
// histogram quantiles.
func (w *Worker) Collect() (map[string]float64, error) {
	res, err := w.inst.EndRun()
	if err != nil {
		return nil, err
	}
	return w.assemble(res), nil
}

// assemble folds one replication's Results into the flat metric map all
// run paths share.
func (w *Worker) assemble(res san.Results) map[string]float64 {
	out := make(map[string]float64, len(res.Rates)+len(res.Impulses))
	maps.Copy(out, res.Rates)
	maps.Copy(out, res.Impulses)
	if plan := w.sh.sys.cfg.Faults; plan != nil {
		deriveFaultMetrics(out, plan)
	}
	if h := w.liveVars().hist; h != nil {
		addHistMetrics(out, h)
	}
	return out
}

// deriveFaultMetrics folds per-spec fault impulses into campaign totals
// and computes the derived dependability metrics: availability-under-
// faults (mean availability conditioned on being degraded) and MTTR
// (mean ticks from PCPU restart to its first re-assignment).
func deriveFaultMetrics(out map[string]float64, plan *faults.Plan) {
	var injects, recovers, lost float64
	for i := range plan.Faults {
		name := plan.Faults[i].Name
		injects += out[faults.SpecInjectsMetric(name)]
		recovers += out[faults.SpecRecoversMetric(name)]
		lost += out[faults.SpecWorkLostMetric(name)]
	}
	out[faults.InjectsMetric] = injects
	out[faults.RecoversMetric] = recovers
	out[faults.WorkLostMetric] = lost
	if deg := out[faults.DegradedMetric]; deg > 0 {
		out[faults.AvailUnderFaultsMetric] = out[faults.AvailDegradedMetric] / deg
	} else {
		// Never degraded in the window: availability under faults is
		// plain availability.
		out[faults.AvailUnderFaultsMetric] = out[AvailabilityAvgMetric]
	}
	if rs := out[faults.ReseatsMetric]; rs > 0 {
		out[faults.MTTRMetric] = out[faults.RecoveryTicksMetric] / rs
	} else {
		out[faults.MTTRMetric] = 0
	}
}

// Run executes one replication over [0, horizon] with the given seed.
func (w *Worker) Run(horizon float64, seed uint64) (map[string]float64, error) {
	return w.RunIntervalContext(context.Background(), 0, horizon, seed)
}
