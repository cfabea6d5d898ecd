package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vcpusim/internal/core"
	"vcpusim/internal/experiments"
	"vcpusim/internal/fastsim"
	"vcpusim/internal/obs"
	"vcpusim/internal/report"
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sched"
	"vcpusim/internal/sim"
	"vcpusim/internal/stats"
	"vcpusim/internal/workload"
)

// The paper grids run with the experiments package's defaults (timeslice
// 30, load ~ Uniform[1,10), 95 % confidence, <0.1 relative half-width,
// 10 to 100 replications) at a shortened horizon, so that one pass over
// all 57 cells fits several times into a run.
const (
	timeslice    = 30
	paperHorizon = 1000
	minReps      = 10
)

// paperCol is one table entry a grid cell fills: experiments renders the
// cell's interval for metric at (row, col) of the named table.
type paperCol struct{ table, row, col, metric string }

// paperCell is one (configuration, algorithm) point of the Figure 8, 9
// and 10 grids, built exactly as experiments.Figure8/9/10 build theirs.
type paperCell struct {
	name string
	algo string
	cfg  core.SystemConfig
	cols []paperCol
}

// paperCells lists the 57 cells of the three grids in the order the
// experiments package runs them.
func paperCells() []paperCell {
	algos := []string{"RRS", "SCS", "RCS"}
	load := rng.Uniform{Low: 1, High: 10}
	vm := func(name string, vcpus, sync int) core.VMConfig {
		return core.VMConfig{Name: name, VCPUs: vcpus, Workload: workload.Spec{Load: load, SyncEveryN: sync}}
	}
	var cells []paperCell
	fig8Cols := []struct{ col, metric string }{
		{"VCPU1.1", core.AvailabilityMetric(0, 0)},
		{"VCPU1.2", core.AvailabilityMetric(0, 1)},
		{"VCPU2.1", core.AvailabilityMetric(1, 0)},
		{"VCPU3.1", core.AvailabilityMetric(2, 0)},
	}
	for _, algo := range algos {
		for pcpus := 1; pcpus <= 4; pcpus++ {
			row := fmt.Sprintf("%s %dPCPU", algo, pcpus)
			c := paperCell{
				name: "figure 8 " + row,
				algo: algo,
				cfg: core.SystemConfig{PCPUs: pcpus, Timeslice: timeslice, Contract: san.ContractV1,
					VMs: []core.VMConfig{vm("VM1", 2, 5), vm("VM2", 1, 5), vm("VM3", 1, 5)}},
			}
			for _, fc := range fig8Cols {
				c.cols = append(c.cols, paperCol{"fig8", row, fc.col, fc.metric})
			}
			cells = append(cells, c)
		}
	}
	sets := []experiments.VMSet{experiments.Set1, experiments.Set2, experiments.Set3}
	setCfg := func(s experiments.VMSet, sync int) core.SystemConfig {
		return core.SystemConfig{PCPUs: 4, Timeslice: timeslice, Contract: san.ContractV1,
			VMs: []core.VMConfig{vm("VM1", 2, sync), vm("VM2", int(s)+1, sync)}}
	}
	for _, s := range sets {
		for _, algo := range algos {
			cells = append(cells, paperCell{
				name: fmt.Sprintf("figure 9 %s %s", s, algo),
				algo: algo,
				cfg:  setCfg(s, 5),
				cols: []paperCol{{"fig9", s.String(), algo, core.PCPUUtilizationAvgMetric}},
			})
		}
	}
	for _, s := range sets {
		for _, n := range []int{5, 4, 3, 2} {
			row := fmt.Sprintf("%s sync 1:%d", s, n)
			for _, algo := range algos {
				cells = append(cells, paperCell{
					name: fmt.Sprintf("figure 10 %s %s", row, algo),
					algo: algo,
					cfg:  setCfg(s, n),
					cols: []paperCol{
						{"fig10", row, algo, experiments.EfficiencyMetric},
						{"fig10abs", row, algo, core.VCPUUtilizationAvgMetric},
					},
				})
			}
		}
	}
	return cells
}

// paperJob runs the three grids on one engine.
type paperJob struct {
	engine experiments.Engine
	seed   uint64
	par    int
	cells  []paperCell
}

func newPaperJob(engine experiments.Engine, v, par int) (job, error) {
	return &paperJob{engine: engine, seed: 1 + uint64(v), par: par, cells: paperCells()}, nil
}

func (j *paperJob) engineName() string { return string(j.engine) }

func (j *paperJob) simOptions() sim.Options {
	return sim.Options{MinReps: minReps, Parallelism: j.par, Seed: j.seed}
}

// setup builds every cell's model once: a compiled core.Worker per cell
// on the SAN engine, a fastsim.Engine per cell on the fast engine.
func (j *paperJob) setup() (int, error) {
	for _, c := range j.cells {
		f, err := sched.Factory(c.algo, sched.Params{Timeslice: timeslice})
		if err != nil {
			return 0, err
		}
		if j.engine == experiments.EngineSAN {
			_, err = core.NewWorker(c.cfg, f)
		} else {
			_, err = fastsim.New(c.cfg, f(), j.seed)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return len(j.cells), nil
}

// cellTimes collects the experiments package's own cell.end spans.
type cellTimes struct {
	mu  sync.Mutex
	max time.Duration
}

func (c *cellTimes) Emit(ev obs.Event) {
	if ev.Kind != obs.KindCellEnd {
		return
	}
	c.mu.Lock()
	if d := time.Duration(ev.ElapsedNS); d > c.max {
		c.max = d
	}
	c.mu.Unlock()
}

// pass regenerates Figures 8, 9 and 10 through the experiments package,
// the path a reproducer runs. A non-nil sink receives its cell spans.
func (j *paperJob) pass(ctx context.Context, sink obs.Sink) (passOut, error) {
	p := experiments.Defaults()
	p.Engine = j.engine
	p.Contract = san.ContractV1
	p.Seed = j.seed
	p.Horizon = paperHorizon
	p.Sim = j.simOptions()
	p.GridParallelism = 1
	p.Sink = sink

	start := obs.Clock()
	f8, err := experiments.Figure8(ctx, p)
	if err != nil {
		return passOut{}, err
	}
	f9, err := experiments.Figure9(ctx, p)
	if err != nil {
		return passOut{}, err
	}
	f10, f10abs, err := experiments.Figure10(ctx, p)
	if err != nil {
		return passOut{}, err
	}
	wall := obs.Clock() - start

	tables := map[string]*report.Table{"fig8": f8, "fig9": f9, "fig10": f10, "fig10abs": f10abs}
	return j.summarize(wall, func(i int, col paperCol) (stats.Interval, error) {
		iv, ok := tables[col.table].Get(col.row, col.col)
		if !ok {
			return iv, fmt.Errorf("%s: table %s has no entry (%s, %s)", j.cells[i].name, col.table, col.row, col.col)
		}
		return iv, nil
	})
}

// summarize digests the grid's table entries in cell order and counts the
// replications behind them.
func (j *paperJob) summarize(wall time.Duration, get func(cell int, col paperCol) (stats.Interval, error)) (passOut, error) {
	var d digester
	out := passOut{wall: wall, counts: map[string]float64{"min_cell_reps": -1}}
	for i, c := range j.cells {
		var n int64
		for _, col := range c.cols {
			iv, err := get(i, col)
			if err != nil {
				return passOut{}, err
			}
			d.interval(col.table+"|"+col.row+"|"+col.col, iv)
			n = iv.N
		}
		out.reps += int(n)
		if m := out.counts["min_cell_reps"]; m < 0 || float64(n) < m {
			out.counts["min_cell_reps"] = float64(n)
		}
	}
	out.hostTicks = float64(out.reps) * paperHorizon
	out.digest = d.sum()
	return out, nil
}

// check: every cell reached the stopping rule's minimum replications.
func (j *paperJob) check(p passOut) (string, error) {
	m := p.counts["min_cell_reps"]
	msg := fmt.Sprintf("traffic: %d cells, %d replications, fewest in one cell %g (minimum %d)", len(j.cells), p.reps, m, minReps)
	if m < minReps {
		return msg, fmt.Errorf("a grid cell ran %g replications, below the stopping rule's minimum %d", m, minReps)
	}
	return msg, nil
}

// tracedPass runs the same grid cell by cell through sim.RunPooled with
// timing replicators, recording every replication's span subtree.
func (j *paperJob) tracedPass(ctx context.Context, tr *Tracer) (passOut, traceOut, error) {
	start := obs.Clock()
	pass := tr.Add(-1, spanPass, start, 0, 1)
	var to traceOut
	sums := make([]sim.Summary, len(j.cells))
	for i, c := range j.cells {
		f, err := sched.Factory(c.algo, sched.Params{Timeslice: timeslice})
		if err != nil {
			return passOut{}, to, err
		}
		cs := obs.Clock()
		cell := tr.Add(pass, spanCell, cs, 0, 1)
		var slots []*slot
		factory := func() (sim.Replicator, error) {
			s := &slot{}
			slots = append(slots, s)
			if j.engine == experiments.EngineSAN {
				return s.sanReplicator(c.cfg, f, c.algo, 0, paperHorizon, true, nil)
			}
			return s.fastReplicator(c.cfg, f, c.algo, paperHorizon), nil
		}
		sum, err := sim.RunPooled(ctx, factory, j.simOptions())
		if err != nil {
			return passOut{}, to, fmt.Errorf("%s: %w", c.name, err)
		}
		tr.spans[cell].Dur = int64(obs.Clock() - cs)
		to.fold(tr, cell, slots, j.engine == experiments.EngineFast)
		sums[i] = sum
	}
	wall := obs.Clock() - start
	tr.spans[pass].Dur = int64(wall)
	to.slots = j.par
	to.wall = wall
	out, err := j.summarize(wall, func(i int, col paperCol) (stats.Interval, error) {
		iv, ok := sums[i].Metric(col.metric)
		if !ok {
			return iv, fmt.Errorf("%s: no metric %s", j.cells[i].name, col.metric)
		}
		return iv, nil
	})
	return out, to, err
}
