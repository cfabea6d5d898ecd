package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vcpusim/internal/core"
	"vcpusim/internal/obs"
	"vcpusim/internal/san"
)

// Span is one timed layer boundary of the traced run. Spans nest in time
// by Parent (-1 for a root): a child runs inside its parent on the same
// goroutine, so self time is the parent's duration minus its children's.
// Cause links a span to the one that caused it without nesting it (a
// replication caused by a grid cell runs on a worker goroutine, in
// parallel with its siblings). A span that folds many calls of one boundary
// (every Schedule call of a replication, say) carries their summed
// duration in Dur and their number in N; Start is then the first call's
// start. Times are nanoseconds from the start of the run.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cause  int    `json:"cause"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	N      int64  `json:"n"`
}

// Tracer keeps every span of a traced run in memory; Write dumps them
// when the run ends. A Tracer is driven by one goroutine: concurrent
// replications record into their own repTrace and are folded in after
// their batch completes.
type Tracer struct {
	spans []Span
	epoch time.Duration
}

func newTracer() *Tracer { return &Tracer{epoch: obs.Clock()} }

// Add records a span nested in parent and returns its ID.
func (t *Tracer) Add(parent int, name string, start, dur time.Duration, n int64) int {
	return t.add(parent, -1, name, start, dur, n)
}

// AddCaused records a root span caused by span cause.
func (t *Tracer) AddCaused(cause int, name string, start, dur time.Duration, n int64) int {
	return t.add(-1, cause, name, start, dur, n)
}

func (t *Tracer) add(parent, cause int, name string, start, dur time.Duration, n int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Cause: cause, Name: name, Start: int64(start - t.epoch), Dur: int64(dur), N: n})
	return id
}

// selfByName computes each span's self time — its duration minus the
// durations of its direct children — and sums it per span name.
func selfByName(spans []Span) map[string]int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// Write stores the spans as one JSON array.
func (t *Tracer) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Span names. Each names the layer whose public call it brackets; the
// per-layer metrics are the self times of these spans.
const (
	spanPass     = "bench.pass"           // one traced pass of the workload
	spanCell     = "experiments.cell"     // one grid cell: sim.RunPooled
	spanBuild    = "core.NewWorker"       // model build inside a worker slot
	spanRep      = "sim.replication"      // one replication, Arm to Collect
	spanLoop     = "san.ProcessNextEvent" // the event loop of a replication
	spanGate     = "core.Scheduling_Func" // the scheduler gate firing
	spanSchedule = "sched.Schedule"       // the plugged-in algorithm
	spanFastRun  = "fastsim.RunInterval"  // the fast engine's tick loop
	spanFleet    = "cluster.Replicate"    // one fleet replication
	// spanFleetGate folds the scheduling gate over every fleet host; it
	// includes Schedule, which the orchestrator's hosts do not expose.
	spanFleetGate = "cluster.host_gate"
)

// repTrace accumulates one replication's nested timings. The fields
// nest: rep ⊃ loop ⊃ gate ⊃ sched.
type repTrace struct {
	start                 time.Duration
	rep, loop, gate, schd time.Duration
	gateN, schedN         int64
	ticks                 float64
	algo                  string
	// Engine counters of the replication.
	inst, scheduled, cancelled, maxDepth, injects, fastSchedIns float64
}

// timedScheduler wraps the scheduler a factory returns and times every
// Schedule call. It reads the clock twice per call.
type timedScheduler struct {
	inner core.Scheduler
	acc   *repTrace
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Schedule(now int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	t := obs.Clock()
	s.inner.Schedule(now, vcpus, pcpus, acts)
	s.acc.schd += obs.Clock() - t
	s.acc.schedN++
}

// timedFactory wraps a scheduler factory so every scheduler it builds
// reports into *acc (the replication record currently being filled).
func timedFactory(f core.SchedulerFactory, acc **repTrace) core.SchedulerFactory {
	return func() core.Scheduler {
		return &timedScheduler{inner: f(), acc: *acc}
	}
}

// gateName is the hypervisor's scheduling gate, the instantaneous
// activity that runs timeslice accounting and then calls Schedule.
const gateName = "Scheduling_Func"

// hookGate installs fire hooks on inst that time the scheduling gate
// into *acc. Only the gate reads the clock; every other firing pays one
// pointer comparison.
func hookGate(inst *san.Instance, acc **repTrace) {
	var gate *san.Activity
	var start time.Duration
	isGate := func(a *san.Activity) bool {
		if gate == nil && strings.HasSuffix(a.Name(), gateName) {
			gate = a
		}
		return a == gate
	}
	inst.SetFireHooks(func(a *san.Activity) {
		if isGate(a) {
			start = obs.Clock()
		}
	}, func(a *san.Activity) {
		if a == gate {
			(*acc).gate += obs.Clock() - start
			(*acc).gateN++
		}
	})
}

// runSteps drives one armed SAN replication through the instance's step
// primitives, timing the event loop into rt: BeginRun, ProcessNextEvent
// until the horizon, then the worker's Collect.
func runSteps(w *core.Worker, warmup, horizon float64, rt *repTrace) (map[string]float64, error) {
	inst := w.Instance()
	if err := inst.BeginRun(warmup, horizon); err != nil {
		return nil, err
	}
	t := obs.Clock()
	for inst.HasPendingEvents() {
		inst.ProcessNextEvent()
	}
	rt.loop = obs.Clock() - t
	return w.Collect()
}

// addRep folds a finished replication record into the tracer as a
// subtree caused by span cause.
func (t *Tracer) addRep(cause int, rt *repTrace, fast bool) {
	rep := t.AddCaused(cause, spanRep, rt.start, rt.rep, 1)
	inner := rep
	if fast {
		inner = t.Add(rep, spanFastRun, rt.start, rt.loop, 1)
	} else {
		loop := t.Add(rep, spanLoop, rt.start, rt.loop, 1)
		inner = t.Add(loop, spanGate, rt.start, rt.gate, rt.gateN)
	}
	t.Add(inner, spanSchedule+"/"+rt.algo, rt.start, rt.schd, rt.schedN)
}

// layerTimes is the traced run's self-time split of replication time.
type layerTimes struct {
	rep, armCollect, sanExec, coreStep, fastsim int64
	sched                                       map[string]int64 // per algorithm
	schedCalls                                  map[string]int64
}

// splitLayers reads the per-layer self times off the span tree. The
// parts add up to the replication total by construction of self time;
// check verifies that the tree was well formed.
func splitLayers(spans []Span) (layerTimes, error) {
	self := selfByName(spans)
	lt := layerTimes{sched: map[string]int64{}, schedCalls: map[string]int64{}}
	lt.armCollect = self[spanRep]
	lt.sanExec = self[spanLoop]
	lt.coreStep = self[spanGate]
	lt.fastsim = self[spanFastRun]
	var schedTotal int64
	for _, s := range spans {
		if s.Name == spanRep {
			lt.rep += s.Dur
		} else if algo, ok := strings.CutPrefix(s.Name, spanSchedule+"/"); ok {
			lt.sched[algo] += s.Dur
			lt.schedCalls[algo] += s.N
			schedTotal += s.Dur
		}
	}
	if sum := lt.armCollect + lt.sanExec + lt.coreStep + lt.fastsim + schedTotal; sum != lt.rep {
		return lt, fmt.Errorf("perfbench: layer self times sum to %d ns, replications took %d ns", sum, lt.rep)
	}
	return lt, nil
}
