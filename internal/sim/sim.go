// Package sim runs simulation experiments as sequences of independent
// replications with confidence-interval controlled stopping, replacing the
// Möbius simulation executive the paper relies on: replications run in
// parallel, results are aggregated per reward variable, and the experiment
// stops once every tracked metric's relative confidence-interval half-width
// drops below the target (the paper reports 95 % confidence with <0.1
// intervals) or the replication budget is exhausted.
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"vcpusim/internal/obs"
	"vcpusim/internal/rng"
	"vcpusim/internal/stats"
)

// Replicator produces the reward-variable values of one replication.
// Implementations must be safe for concurrent invocation with distinct
// seeds (each call builds its own model), and should honor ctx so that a
// cancelled experiment interrupts a long replication instead of letting
// the whole batch run to its horizon.
type Replicator func(ctx context.Context, rep int, seed uint64) (map[string]float64, error)

// ReplicatorFactory constructs one Replicator per worker for RunPooled.
// Each returned replicator is invoked serially by a single worker
// goroutine, so it may carry state across replications — typically a
// compiled model whose instance is reset per seed (core.Worker) — without
// any locking. The factory itself may be called from the experiment's
// goroutine multiple times; it must produce independent replicators.
type ReplicatorFactory func() (Replicator, error)

// Options controls an experiment run. Zero values select the defaults
// documented per field.
type Options struct {
	// Level is the confidence level; default 0.95.
	Level float64
	// RelWidth is the target relative CI half-width; default 0.1 (the
	// paper's setting).
	RelWidth float64
	// MinReps is the minimum number of replications; default 10.
	MinReps int
	// MaxReps bounds the number of replications; default 100.
	MaxReps int
	// Parallelism is the number of concurrent replications; default
	// GOMAXPROCS.
	Parallelism int
	// Seed derives every replication's seed deterministically: replication
	// i always receives the same seed. The stopping rule is checked once
	// per batch of Parallelism replications, so the replication count, and
	// with it the summaries, are reproducible for a fixed seed and
	// Parallelism; another Parallelism may stop after a different count.
	Seed uint64
	// StopMetrics lists the metrics whose CIs gate stopping; empty means
	// every observed metric.
	StopMetrics []string
	// Sink, when non-nil, receives span events from the replication
	// controller: one sim.batch event per completed batch and one
	// sim.stop event per stopping-rule check (with the current relative
	// CI half-widths). Nil costs nothing — no event is constructed.
	Sink obs.Sink
}

func (o Options) withDefaults() Options {
	if o.Level == 0 {
		o.Level = 0.95
	}
	if o.RelWidth == 0 {
		o.RelWidth = 0.1
	}
	if o.MinReps == 0 {
		o.MinReps = 10
	}
	if o.MaxReps == 0 {
		o.MaxReps = 100
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

func (o Options) validate() error {
	if o.Level <= 0 || o.Level >= 1 {
		return fmt.Errorf("sim: confidence level %g out of (0,1)", o.Level)
	}
	if o.RelWidth <= 0 {
		return fmt.Errorf("sim: non-positive target CI width %g", o.RelWidth)
	}
	if o.MinReps < 2 {
		return fmt.Errorf("sim: need at least two replications, got min %d", o.MinReps)
	}
	if o.MaxReps < o.MinReps {
		return fmt.Errorf("sim: max replications %d below min %d", o.MaxReps, o.MinReps)
	}
	if o.Parallelism < 1 {
		return fmt.Errorf("sim: non-positive parallelism %d", o.Parallelism)
	}
	return nil
}

// Summary aggregates an experiment's replications.
type Summary struct {
	// Metrics holds the confidence interval of every reward variable.
	Metrics map[string]stats.Interval
	// Replications is the number of replications executed.
	Replications int
	// Converged reports whether the CI target was met (as opposed to
	// exhausting MaxReps).
	Converged bool
	// Level echoes the confidence level.
	Level float64
}

// Metric returns the interval for a metric name and whether it exists.
func (s Summary) Metric(name string) (stats.Interval, bool) {
	iv, ok := s.Metrics[name]
	return iv, ok
}

// Mean returns the mean of a metric, or 0 if absent.
func (s Summary) Mean(name string) float64 {
	return s.Metrics[name].Mean
}

// MetricNames returns the observed metric names sorted.
func (s Summary) MetricNames() []string {
	names := make([]string, 0, len(s.Metrics))
	for n := range s.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes replications of rep until the stopping rule is satisfied.
// It is deterministic for a given Options.Seed and Options.Parallelism:
// per-replication seeds are pre-derived, and the stopping rule is checked
// after every batch of Parallelism replications (see Options.Seed). rep must be safe for concurrent invocation; replicators
// that carry per-worker state belong in RunPooled.
func Run(ctx context.Context, rep Replicator, opts Options) (Summary, error) {
	if rep == nil {
		return Summary{}, fmt.Errorf("sim: nil replicator")
	}
	return RunPooled(ctx, func() (Replicator, error) { return rep, nil }, opts)
}

// RunPooled is Run with per-worker replicator state: factory is called
// once per worker slot (at most Options.Parallelism times, lazily), and
// each produced replicator is driven serially by its slot across batches.
// A replicator can therefore compile its model once and reset a pooled
// instance per replication, amortizing setup over the whole experiment.
//
// Determinism is unchanged from Run: replication seeds are pre-derived
// from Options.Seed, replication i always receives seed i, and results
// are folded into the accumulators in replication order — so pooled and
// fresh execution produce identical summaries at the same Parallelism, as
// long as each replication is a pure function of its seed.
func RunPooled(ctx context.Context, factory ReplicatorFactory, opts Options) (Summary, error) {
	if factory == nil {
		return Summary{}, fmt.Errorf("sim: nil replicator factory")
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return Summary{}, err
	}

	// Pre-derive every replication seed from the experiment seed.
	seeds := make([]uint64, opts.MaxReps)
	src := rng.New(opts.Seed)
	for i := range seeds {
		seeds[i] = src.Uint64()
	}

	// Worker slots, filled lazily: slot j serves replication j of every
	// batch, so one slot never runs two replications at once.
	workers := make([]Replicator, 0, opts.Parallelism)
	ensureWorkers := func(n int) error {
		for len(workers) < n {
			w, err := factory()
			if err != nil {
				return fmt.Errorf("sim: building worker %d: %w", len(workers), err)
			}
			if w == nil {
				return fmt.Errorf("sim: replicator factory returned nil for worker %d", len(workers))
			}
			workers = append(workers, w)
		}
		return nil
	}

	acc := make(map[string]*stats.Welford)
	done := 0
	batches := 0
	converged := false

	for done < opts.MaxReps && !converged {
		if err := ctx.Err(); err != nil {
			return Summary{}, fmt.Errorf("sim: cancelled after %d replications: %w", done, err)
		}
		batch := opts.Parallelism
		if remaining := opts.MaxReps - done; batch > remaining {
			batch = remaining
		}
		if done < opts.MinReps && done+batch > opts.MinReps {
			// Run exactly up to MinReps before first convergence check
			// unless the batch already covers it.
			batch = opts.MinReps - done
		}
		if err := ensureWorkers(batch); err != nil {
			return Summary{}, err
		}
		results, err := runBatch(ctx, workers, seeds[done:done+batch], done)
		if err != nil {
			return Summary{}, err
		}
		for _, r := range results {
			for name, v := range r {
				w := acc[name]
				if w == nil {
					w = &stats.Welford{}
					acc[name] = w
				}
				w.Add(v)
			}
		}
		done += batch
		batches++
		if opts.Sink != nil {
			opts.Sink.Emit(obs.Event{Kind: obs.KindBatch, Batch: batches, Size: batch, Reps: done})
		}
		if done >= opts.MinReps {
			converged = convergedAll(acc, opts)
			if opts.Sink != nil {
				opts.Sink.Emit(obs.Event{
					Kind: obs.KindStop, Reps: done, Converged: converged,
					Widths: relWidths(acc, opts.Level),
				})
			}
		}
	}

	out := Summary{
		Metrics:      make(map[string]stats.Interval, len(acc)),
		Replications: done,
		Converged:    converged,
		Level:        opts.Level,
	}
	for name, w := range acc {
		out.Metrics[name] = w.CI(opts.Level)
	}
	return out, nil
}

// runBatch executes one batch of replications concurrently — replication
// i of the batch on worker i — preserving replication order in the
// returned slice.
func runBatch(ctx context.Context, workers []Replicator, seeds []uint64, base int) ([]map[string]float64, error) {
	results := make([]map[string]float64, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i := range seeds {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := workers[i](ctx, base+i, seeds[i])
			if err != nil {
				errs[i] = fmt.Errorf("sim: replication %d: %w", base+i, err)
				return
			}
			results[i] = r
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// BatchMeans estimates steady-state metrics from one long run split into
// batches (the method of batch means): each element of batches is the
// metric map of one window (e.g. from fastsim's RunWindowed), treated as
// one observation. With windows long enough that autocorrelation between
// them is negligible, the Student-t intervals are valid; the caller is
// responsible for discarding the initial transient and choosing the batch
// length. At least two batches are required.
func BatchMeans(batches []map[string]float64, level float64) (Summary, error) {
	if len(batches) < 2 {
		return Summary{}, fmt.Errorf("sim: batch means needs at least two batches, got %d", len(batches))
	}
	if level <= 0 || level >= 1 {
		return Summary{}, fmt.Errorf("sim: confidence level %g out of (0,1)", level)
	}
	acc := make(map[string]*stats.Welford)
	for _, b := range batches {
		for name, v := range b {
			w := acc[name]
			if w == nil {
				w = &stats.Welford{}
				acc[name] = w
			}
			w.Add(v)
		}
	}
	out := Summary{
		Metrics:      make(map[string]stats.Interval, len(acc)),
		Replications: len(batches),
		Converged:    true,
		Level:        level,
	}
	for name, w := range acc {
		out.Metrics[name] = w.CI(level)
	}
	return out, nil
}

// relWidths snapshots every metric's relative CI half-width for a
// sim.stop span. Non-finite widths (zero means) are omitted: they cannot
// be represented in JSON and carry no stopping information.
func relWidths(acc map[string]*stats.Welford, level float64) map[string]float64 {
	out := make(map[string]float64, len(acc))
	for name, w := range acc {
		rw := w.CI(level).RelHalfWidth()
		if math.IsNaN(rw) || math.IsInf(rw, 0) {
			continue
		}
		out[name] = rw
	}
	return out
}

// convergedAll reports whether every tracked metric meets the CI target.
func convergedAll(acc map[string]*stats.Welford, opts Options) bool {
	check := func(w *stats.Welford) bool {
		return w.CI(opts.Level).RelHalfWidth() < opts.RelWidth
	}
	if len(opts.StopMetrics) > 0 {
		for _, name := range opts.StopMetrics {
			w, ok := acc[name]
			if !ok || !check(w) {
				return false
			}
		}
		return true
	}
	if len(acc) == 0 {
		return false
	}
	for _, w := range acc {
		if !check(w) {
			return false
		}
	}
	return true
}
