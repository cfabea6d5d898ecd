// Command perfbench is the repository's benchmark: it runs one named
// workload for a given number of seconds and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as the last line of
// its output. See README.md for the workloads and metrics.
//
// Usage:
//
//	bash perfbench/run.sh -workload paper-san -seed 1 -seconds 15 -trace 0
//	bash perfbench/run.sh -record perfbench/refs.json
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"vcpusim/internal/experiments"
	"vcpusim/internal/obs"
)

// variants is the number of distinct inputs per workload: a seed selects
// variant seed % variants, and refs.json records the output digest of
// every variant.
const variants = 16

// maxPar caps the replications in flight. The stopping rule is checked
// after every batch of that many, so the replication count — and the
// outputs — depend on it; refs.json holds digests for every value from 1
// to maxPar.
const maxPar = 2

const (
	// A run builds its models at least setupRepeats times, and more while
	// their total stays under setupBudget seconds (at most maxSetups);
	// setup_s is the median.
	setupRepeats = 5
	setupBudget  = 0.5
	maxSetups    = 100
	// minPasses is the fewest passes a run measures, whatever -seconds.
	minPasses = 3
)

//go:embed refs.json
var refsJSON []byte

// job is one workload's generated inputs plus the code that runs them.
type job interface {
	// engineName names the engine the workload runs on.
	engineName() string
	// setup builds every model the workload runs and returns how many.
	setup() (int, error)
	// pass runs the workload once, untraced. A non-nil sink receives the
	// experiments package's cell spans where the workload has cells.
	pass(ctx context.Context, sink obs.Sink) (passOut, error)
	// tracedPass runs the workload once through timing wrappers.
	tracedPass(ctx context.Context, tr *Tracer) (passOut, traceOut, error)
	// check verifies the property the workload was chosen for.
	check(p passOut) (string, error)
}

type workloadDef struct {
	name  string
	build func(v, par int) (job, error)
}

var workloads = []workloadDef{
	{"paper-san", func(v, par int) (job, error) { return newPaperJob(experiments.EngineSAN, v, par) }},
	{"paper-fast", func(v, par int) (job, error) { return newPaperJob(experiments.EngineFast, v, par) }},
	{"fleet", newFleetJob},
	{"dense-host-v2", newDenseJob},
}

func lookup(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-san, paper-fast, fleet or dense-host-v2")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; variant seed%16 of the workload runs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run")
	fs.StringVar(&o.root, "root", ".", "checkout root (trace output goes under its .bench_build)")
	record := fs.String("record", "", "write every workload's reference digests to this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	env := stamp(o.root)
	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "env %s\n", envLine)
	if env.GOMAXPROCS > env.NProc {
		fmt.Fprintf(stdout, "warning: GOMAXPROCS %d exceeds nproc %d; replications are capped at nproc\n", env.GOMAXPROCS, env.NProc)
	}
	if *record != "" {
		return recordRefs(*record, stdout)
	}
	if o.workload == "" {
		return errors.New("-workload is required")
	}
	res, err := bench(o, env.par(), stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return errors.New("the run failed its correctness checks")
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one workload: set-up, then passes until the measuring time
// is up, then the checks.
func bench(o options, par int, stdout io.Writer) (result, error) {
	def, err := lookup(o.workload)
	if err != nil {
		return result{}, err
	}
	v := int(o.seed % variants)
	j, err := def.build(v, par)
	if err != nil {
		return result{}, err
	}
	refs, err := loadRefs()
	if err != nil {
		return result{}, err
	}
	ref := ""
	if r := refs[refKey(def.name, par)]; v < len(r) {
		ref = r[v]
	}
	fmt.Fprintf(stdout, "workload %s seed %d variant %d engine %s, %d replications in flight\n", def.name, o.seed, v, j.engineName(), par)

	var setups []float64
	models, total := 0, 0.0
	for len(setups) < setupRepeats || (total < setupBudget && len(setups) < maxSetups) {
		if len(setups) == 0 || setups[len(setups)-1] > 0.01 {
			runtime.GC()
		}
		t := obs.Clock()
		if models, err = j.setup(); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (obs.Clock() - t).Seconds())
		total += setups[len(setups)-1]
	}
	// Return the discarded builds' memory so that the peak resident set
	// reflects the passes.
	debug.FreeOSMemory()

	ctx := context.Background()
	tr := newTracer()
	res := result{Correct: true, Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(stdout, "FAIL: "+format+"\n", args...)
	}
	var plain []passOut
	var tos []traceOut
	var cellMax []float64
	deadline := obs.Clock() + time.Duration(o.seconds*float64(time.Second))
	for len(plain) < minPasses || obs.Clock() < deadline {
		cells := &cellTimes{}
		var sink obs.Sink
		if o.trace {
			sink = cells
		}
		// Each pass starts from a collected heap, so that it pays for its
		// own garbage and not for the previous pass's.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := j.pass(ctx, sink)
		runtime.ReadMemStats(&after)
		if err != nil {
			res.Attempted++
			fail("pass %d: %v", len(plain), err)
			break
		}
		p.allocBytes = float64(after.TotalAlloc - before.TotalAlloc)
		res.Attempted += p.reps
		fmt.Fprintf(stdout, "pass %d: %.4f s, %d replications, %.0f host-ticks, digest %s\n", len(plain), p.wall.Seconds(), p.reps, p.hostTicks, p.digest)
		if p.digest != ref {
			fail("pass %d digest %s, reference %q", len(plain), p.digest, ref)
		}
		plain = append(plain, p)
		cellMax = append(cellMax, cells.max.Seconds())
		if !o.trace {
			continue
		}
		runtime.GC()
		tp, to, err := j.tracedPass(ctx, tr)
		if err != nil {
			res.Attempted++
			fail("traced pass %d: %v", len(tos), err)
			break
		}
		res.Attempted += tp.reps
		fmt.Fprintf(stdout, "traced pass %d: %.4f s, digest %s\n", len(tos), to.wall.Seconds(), tp.digest)
		if tp.digest != ref {
			fail("traced pass %d digest %s, reference %q", len(tos), tp.digest, ref)
		}
		tos = append(tos, to)
	}
	// Read before the traffic check, which builds models of its own.
	rss := peakRSSMB()
	if len(plain) > 0 {
		msg, err := j.check(plain[len(plain)-1])
		fmt.Fprintln(stdout, msg)
		if err != nil {
			fail("traffic check: %v", err)
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}

	if !o.trace {
		if !res.Correct {
			// An error or a failed check fails every replication of the run.
			res.Failed = res.Attempted
		}
		var walls, rates []float64
		for _, p := range plain {
			walls = append(walls, p.wall.Seconds())
			rates = append(rates, p.hostTicks/p.wall.Seconds())
		}
		res.Metrics["wall_s"] = metric{median(walls), "s"}
		res.Metrics["host_ticks_per_s"] = metric{median(rates), "1/s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		res.Metrics["ok_frac"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "frac"}
		return res, nil
	}
	if len(tos) > 0 {
		layers, err := layerMetrics(j, plain, tos, tr, median(setups), models, median(cellMax))
		if err != nil {
			fail("%v", err)
		} else {
			res.Metrics = layers
		}
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	path := filepath.Join(o.root, ".bench_build", "perfbench-trace", fmt.Sprintf("%s-seed%d.json", def.name, o.seed))
	if err := tr.Write(path); err != nil {
		return res, err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
	return res, nil
}

// layerMetrics derives the per-layer metrics of a traced run. Layer
// times are totals over every traced pass; a layer the workload does not
// run reads 0.
func layerMetrics(j job, plain []passOut, tos []traceOut, tr *Tracer, setup float64, models int, cellMax float64) (map[string]metric, error) {
	lt, err := splitLayers(tr.spans)
	if err != nil {
		return nil, err
	}
	var t traceOut
	var busy float64
	var walls, plainWalls, allocs []float64
	for _, to := range tos {
		t.reps += to.reps
		t.ticks += to.ticks
		t.inst += to.inst
		t.scheduled += to.scheduled
		t.cancelled += to.cancelled
		t.injects += to.injects
		t.fastSchedIns += to.fastSchedIns
		t.maxDepth = max(t.maxDepth, to.maxDepth)
		busy += to.wall.Seconds() * float64(to.slots)
		walls = append(walls, to.wall.Seconds())
	}
	for _, p := range plain {
		plainWalls = append(plainWalls, p.wall.Seconds())
		allocs = append(allocs, p.allocBytes/p.hostTicks)
	}
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	ns := func(d int64) float64 { return float64(d) }
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	_, isFleet := j.(*fleetJob)
	_, isPaper := j.(*paperJob)
	last := plain[len(plain)-1]
	if isPaper {
		set("experiments.cell_s_max", cellMax, "s")
	} else {
		set("experiments.cell_s_max", 0, "s")
	}
	if isFleet {
		set("sim.replications", 0, "count")
		set("sim.busy_share", 0, "share")
	} else {
		set("sim.replications", float64(last.reps), "count")
		set("sim.busy_share", per(ns(lt.rep)/1e9, busy), "share")
	}
	if j.engineName() == "san" {
		set("core.setup_ms_per_model", per(setup*1e3, float64(models)), "ms")
	} else {
		set("core.setup_ms_per_model", 0, "ms")
	}
	set("core.step_ns_per_tick", per(ns(lt.coreStep), t.ticks), "ns")
	set("core.arm_collect_us_per_rep", per(ns(lt.armCollect)/1e3, float64(t.reps)), "us")
	var schedTotal int64
	for _, algo := range []string{"RRS", "SCS", "RCS"} {
		set("sched."+algo+".ns_per_call", per(ns(lt.sched[algo]), float64(lt.schedCalls[algo])), "ns")
		schedTotal += lt.sched[algo]
	}
	set("sched.share", per(ns(schedTotal), ns(lt.rep)), "share")
	set("san.exec_ns_per_tick", per(ns(lt.sanExec), t.ticks), "ns")
	set("san.inst_firings_per_tick", per(t.inst, t.ticks), "count")
	set("san.max_stabilize_depth", t.maxDepth, "count")
	set("des.scheduled_per_tick", per(t.scheduled, t.ticks), "count")
	set("des.cancelled_per_tick", per(t.cancelled, t.ticks), "count")
	set("fastsim.ns_per_tick", per(ns(lt.fastsim), t.ticks), "ns")
	set("fastsim.schedule_ins_per_tick", per(t.fastSchedIns, t.ticks), "count")
	set("faults.injects_per_rep", per(t.injects, float64(t.reps)), "count")
	set("alloc_bytes_per_tick", median(allocs), "B")
	set("trace.overhead_share", median(walls)/median(plainWalls)-1, "share")

	fleetNS, bareNS, overhead := 0.0, 0.0, 0.0
	if f, ok := j.(*fleetJob); ok {
		var perTick []float64
		for _, p := range plain {
			perTick = append(perTick, p.wall.Seconds()*1e9/p.hostTicks)
		}
		fleetNS = median(perTick)
		if bareNS, err = f.bareNSPerHostTick(); err != nil {
			return nil, err
		}
		overhead = 1 - bareNS/fleetNS
	}
	set("cluster.ns_per_host_tick", fleetNS, "ns")
	set("cluster.bare_ns_per_host_tick", bareNS, "ns")
	set("cluster.overhead_share", overhead, "share")
	for _, c := range []string{"migrations", "dispatches", "place_wait", "queued"} {
		unit := "count"
		if c == "place_wait" {
			unit = "ticks"
		}
		set("cluster."+c, last.counts[c], unit)
	}
	return m, nil
}

// median of a non-empty sample (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// envStamp records where a result was measured.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OverNProc  bool   `json:"gomaxprocs_over_nproc"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
}

// par is the replications a run keeps in flight: at most nproc, and at
// most maxPar.
func (e envStamp) par() int { return max(1, min(e.NProc, e.GOMAXPROCS, maxPar)) }

func stamp(root string) envStamp {
	e := envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit(root),
		Source:     sourceHash(root),
	}
	e.OverNProc = e.GOMAXPROCS > e.NProc
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from root/.git without the git binary; a checkout
// that is not a repository reads "none" and is identified by Source.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
			return strings.TrimSpace(string(b))
		}
		return "unknown"
	}
	return h
}

// sourceHash digests every Go source and go.mod under root, skipping
// hidden directories: it names the code a result measured.
func sourceHash(root string) string {
	var d digester
	err := filepath.WalkDir(root, func(p string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != root && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && e.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		d.lines = append(d.lines, filepath.ToSlash(rel)+"|"+string(b))
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + d.sum()
}

func loadRefs() (map[string][]string, error) {
	var refs map[string][]string
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return refs, nil
}

// refKey names the reference digests of a workload run with par
// replications in flight.
func refKey(workload string, par int) string { return fmt.Sprintf("%s/par%d", workload, par) }

// recordRefs runs one untraced pass of every workload variant at every
// parallelism up to maxPar and writes the digests: the references later
// runs are checked against.
func recordRefs(path string, stdout io.Writer) error {
	refs := map[string][]string{}
	for _, def := range workloads {
		for par := 1; par <= maxPar; par++ {
			key := refKey(def.name, par)
			for v := 0; v < variants; v++ {
				j, err := def.build(v, par)
				if err != nil {
					return err
				}
				if _, err := j.setup(); err != nil {
					return err
				}
				p, err := j.pass(context.Background(), nil)
				if err != nil {
					return fmt.Errorf("%s variant %d: %w", key, v, err)
				}
				msg, err := j.check(p)
				if err != nil {
					return fmt.Errorf("%s variant %d: %s: %w", key, v, msg, err)
				}
				fmt.Fprintf(stdout, "%s variant %d: %s %d replications, %.3f s; %s\n", key, v, p.digest, p.reps, p.wall.Seconds(), msg)
				refs[key] = append(refs[key], p.digest)
			}
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
