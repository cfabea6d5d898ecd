// Package expcli implements the `vcpusim experiments` command-line
// driver: flag parsing, figure dispatch, table/CSV rendering, and the observability
// surface (span streams, run manifests, profiling).
package expcli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"

	"vcpusim/internal/experiments"
	"vcpusim/internal/obs"
	"vcpusim/internal/report"
	"vcpusim/internal/sim"
)

// Run executes the experiments CLI with the given arguments, writing
// tables to out. Diagnostics (progress lines) go to stderr. The error
// return is named so the deferred profile-stop can surface its own
// failure (e.g. an unwritable memory profile) when the run itself
// succeeded.
func Run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		figure   = fs.String("figure", "all", "which experiment: 8, 9, 10, timeslice, skew, balance, lock, hybrid, engines, faults, cluster, or all")
		engine   = fs.String("engine", "fast", `simulation engine: "fast" or "san"`)
		contract = fs.Int("contract", 1, "determinism contract version for the SAN engine: 1 (byte-frozen inverse-transform/Box-Muller variates) or 2 (ziggurat variates)")
		seed     = fs.Uint64("seed", 1, "experiment seed")
		horizon  = fs.Int64("horizon", 20000, "simulated ticks per replication")
		minRep   = fs.Int("min-reps", 10, "minimum replications per cell")
		maxRep   = fs.Int("max-reps", 60, "maximum replications per cell")
		csvDir   = fs.String("csv", "", "directory to also write per-table CSV files into")
		chart    = fs.Bool("chart", false, "render results as ASCII bar charts instead of tables")
		quick    = fs.Bool("quick", false, "quick mode: short horizon and few replications (smoke testing)")
		parallel = fs.Int("parallel", 1, "number of experiment grid cells run concurrently per figure (results are identical at any value)")
		progress = fs.Bool("progress", false, "print a per-cell progress line to stderr as cells finish")
		verbose  = fs.Bool("v", false, "with -progress, also print per-batch and stopping-rule lines")
		spans    = fs.String("spans", "", "write the telemetry span stream as JSONL to this file")
		manifest = fs.String("manifest", "", "directory to write a run manifest (manifest.json) into")
		probeDir = fs.String("probe", "", "directory to write per-cell deterministic time-series probe CSVs into (SAN engine only)")
		probeInt = fs.Float64("probe-every", 0, "probe sampling cadence in virtual ticks (0 means horizon/100)")
		hist     = fs.Bool("hist", false, "enable reward histograms: wait/queue/stall p50/p95/p99 metrics per cell (SAN engine only)")
	)
	var prof obs.Profiles
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	p := experiments.Defaults()
	p.Engine = experiments.Engine(*engine)
	p.Contract = *contract
	p.Seed = *seed
	p.Horizon = *horizon
	p.Sim = sim.Options{MinReps: *minRep, MaxReps: *maxRep}
	if *quick {
		p.Horizon = 4000
		p.Sim = sim.Options{MinReps: 3, MaxReps: 3, RelWidth: 10}
	}
	p.GridParallelism = *parallel
	p.Histograms = *hist
	if *probeDir != "" {
		if p.Engine != experiments.EngineSAN {
			return fmt.Errorf("-probe requires the SAN engine (use -engine san)")
		}
		p.Probe = &experiments.ProbeOptions{Dir: *probeDir, Every: *probeInt}
	}
	if *hist && p.Engine != experiments.EngineSAN {
		return fmt.Errorf("-hist requires the SAN engine (use -engine san)")
	}

	// Assemble the telemetry sink: any combination of a human progress
	// renderer, a JSONL span stream, and the manifest collector. With
	// none requested the sink is nil and telemetry is off end to end.
	var (
		sinks     []obs.Sink
		jsonlSink *obs.JSONLSink
		collector *obs.Collector
		spansFile *os.File
	)
	if *progress {
		h := obs.NewHuman(os.Stderr)
		h.Verbose = *verbose
		sinks = append(sinks, h)
	}
	if *spans != "" {
		if err := os.MkdirAll(filepath.Dir(*spans), 0o755); err != nil {
			return fmt.Errorf("create spans dir: %w", err)
		}
		f, err := os.Create(*spans)
		if err != nil {
			return fmt.Errorf("create spans file: %w", err)
		}
		spansFile = f
		jsonlSink = obs.NewJSONL(f)
		sinks = append(sinks, jsonlSink)
	}
	if *manifest != "" {
		collector = &obs.Collector{}
		sinks = append(sinks, collector)
	}
	p.Sink = obs.Multi(sinks...)

	// Ctrl-C cancels the grid: in-flight cells stop at their next
	// cancellation check instead of simulating to the horizon.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	type job struct {
		name string
		run  func() ([]*report.Table, error)
	}
	jobs := []job{
		{"8", func() ([]*report.Table, error) { return one(experiments.Figure8(ctx, p)) }},
		{"9", func() ([]*report.Table, error) { return one(experiments.Figure9(ctx, p)) }},
		{"10", func() ([]*report.Table, error) {
			eff, abs, err := experiments.Figure10(ctx, p)
			if err != nil {
				return nil, err
			}
			return []*report.Table{eff, abs}, nil
		}},
		{"timeslice", func() ([]*report.Table, error) { return one(experiments.TimesliceSweep(ctx, p, nil)) }},
		{"skew", func() ([]*report.Table, error) { return one(experiments.SkewSweep(ctx, p, nil)) }},
		{"balance", func() ([]*report.Table, error) { return one(experiments.BalanceAblation(ctx, p)) }},
		{"lock", func() ([]*report.Table, error) { return one(experiments.LockAblation(ctx, p)) }},
		{"hybrid", func() ([]*report.Table, error) { return one(experiments.HybridAblation(ctx, p)) }},
		{"engines", func() ([]*report.Table, error) { return one(experiments.EngineComparison(ctx, p, 3)) }},
		{"faults", func() ([]*report.Table, error) { return one(experiments.FigureFaults(ctx, p)) }},
		{"cluster", func() ([]*report.Table, error) { return one(experiments.FigureCluster(ctx, p)) }},
	}

	start := obs.Clock()
	var outputs []string
	want := strings.ToLower(*figure)
	ran := false
	for _, j := range jobs {
		if want != "all" && want != j.name {
			continue
		}
		ran = true
		tables, err := j.run()
		if err != nil {
			return fmt.Errorf("figure %s: %w", j.name, err)
		}
		for i, t := range tables {
			if *chart {
				if err := t.RenderChart(out, 40); err != nil {
					return err
				}
			} else if err := t.Render(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
			if *csvDir != "" {
				name := fmt.Sprintf("figure_%s", j.name)
				if len(tables) > 1 {
					name = fmt.Sprintf("%s_%d", name, i+1)
				}
				path := filepath.Join(*csvDir, name+".csv")
				if err := writeCSV(t, path); err != nil {
					return err
				}
				outputs = append(outputs, path)
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q (use 8, 9, 10, timeslice, skew, balance, lock, hybrid, engines, faults, cluster, or all)", *figure)
	}

	if spansFile != nil {
		if err := jsonlSink.Close(); err != nil {
			return fmt.Errorf("spans stream: %w", err)
		}
		if err := spansFile.Close(); err != nil {
			return fmt.Errorf("close spans file: %w", err)
		}
	}
	if *manifest != "" {
		m := obs.Manifest{
			Schema:      obs.ManifestSchemaVersion,
			Tool:        "vcpusim experiments",
			GoVersion:   runtime.Version(),
			VCSRevision: obs.VCSRevision(),
			Command:     append([]string{"experiments"}, args...),
			Seed:        p.Seed,
			Contract:    *contract,
			Params: map[string]any{
				"figure":           *figure,
				"engine":           *engine,
				"contract":         *contract,
				"horizon":          p.Horizon,
				"min_reps":         p.Sim.MinReps,
				"max_reps":         p.Sim.MaxReps,
				"quick":            *quick,
				"grid_parallelism": p.GridParallelism,
				"hist":             *hist,
				"probe":            *probeDir,
			},
			Cells:  collector.Cells(),
			WallNS: (obs.Clock() - start).Nanoseconds(),
		}
		if p.Probe != nil {
			m.Series = p.Probe.Files()
		}
		for _, path := range outputs {
			of, err := obs.HashOutput(path)
			if err != nil {
				return err
			}
			m.Outputs = append(m.Outputs, of)
		}
		if _, err := obs.WriteManifest(*manifest, m); err != nil {
			return err
		}
	}
	return nil
}

// one adapts a single-table result to the job signature.
func one(t *report.Table, err error) ([]*report.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*report.Table{t}, nil
}

// writeCSV exports one table.
func writeCSV(t *report.Table, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create csv dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create csv: %w", err)
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
