// Package config parses JSON experiment configurations for the command
// line tools: a complete virtualization setup (PCPUs, timeslice, VMs with
// workload characterizations), the scheduling algorithm with its knobs, and
// the simulation controls.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"vcpusim/internal/core"
	"vcpusim/internal/faults"
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sched"
	"vcpusim/internal/sim"
	"vcpusim/internal/workload"
)

// Distribution is the JSON form of a load-duration distribution.
type Distribution struct {
	// Dist selects the family: "deterministic", "uniform", "exponential",
	// "erlang", "normal", "lognormal", "geometric", or "empirical".
	Dist string `json:"dist"`
	// Value is the constant for "deterministic".
	Value float64 `json:"value,omitempty"`
	// Low/High bound "uniform".
	Low  float64 `json:"low,omitempty"`
	High float64 `json:"high,omitempty"`
	// Rate parameterizes "exponential" and "erlang".
	Rate float64 `json:"rate,omitempty"`
	// K is the shape of "erlang".
	K int `json:"k,omitempty"`
	// Mu/Sigma parameterize "normal" and "lognormal".
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	// P parameterizes "geometric".
	P float64 `json:"p,omitempty"`
	// Values/Weights parameterize "empirical".
	Values  []float64 `json:"values,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
}

// Build constructs the rng.Distribution.
func (d Distribution) Build() (rng.Distribution, error) {
	switch strings.ToLower(d.Dist) {
	case "deterministic", "constant":
		return rng.Deterministic{Value: d.Value}, nil
	case "uniform":
		if !(d.Low < d.High) {
			return nil, fmt.Errorf("config: uniform needs low < high, got [%g, %g)", d.Low, d.High)
		}
		return rng.Uniform{Low: d.Low, High: d.High}, nil
	case "exponential":
		if d.Rate <= 0 {
			return nil, fmt.Errorf("config: exponential needs positive rate, got %g", d.Rate)
		}
		return rng.Exponential{Rate: d.Rate}, nil
	case "erlang":
		if d.Rate <= 0 || d.K < 1 {
			return nil, fmt.Errorf("config: erlang needs positive rate and k >= 1, got rate=%g k=%d", d.Rate, d.K)
		}
		return rng.Erlang{K: d.K, Rate: d.Rate}, nil
	case "normal":
		if d.Sigma < 0 {
			return nil, fmt.Errorf("config: normal needs non-negative sigma, got %g", d.Sigma)
		}
		return rng.Normal{Mu: d.Mu, Sigma: d.Sigma}, nil
	case "lognormal":
		if d.Sigma < 0 {
			return nil, fmt.Errorf("config: lognormal needs non-negative sigma, got %g", d.Sigma)
		}
		return rng.LogNormal{Mu: d.Mu, Sigma: d.Sigma}, nil
	case "geometric":
		if d.P <= 0 || d.P > 1 {
			return nil, fmt.Errorf("config: geometric needs p in (0, 1], got %g", d.P)
		}
		return rng.Geometric{P: d.P}, nil
	case "empirical":
		return rng.NewEmpirical(d.Values, d.Weights)
	default:
		return nil, fmt.Errorf("config: unknown distribution %q", d.Dist)
	}
}

// VM is the JSON form of one virtual machine.
type VM struct {
	Name string `json:"name,omitempty"`
	// VCPUs is the number of virtual CPUs.
	VCPUs int `json:"vcpus"`
	// Load is the workload-duration distribution in ticks.
	Load Distribution `json:"load"`
	// SyncEveryN is the paper's 1:N synchronization ratio (0 disables).
	SyncEveryN int `json:"syncEveryN,omitempty"`
	// SyncProbabilistic draws sync points as Bernoulli(1/N) instead of
	// every Nth workload.
	SyncProbabilistic bool `json:"syncProbabilistic,omitempty"`
	// SyncKind selects the synchronization mechanism: "barrier" (default,
	// the paper's) or "spinlock" (extension).
	SyncKind string `json:"syncKind,omitempty"`
}

// syncKind resolves the JSON name.
func (v VM) syncKind() (workload.SyncKind, error) {
	switch strings.ToLower(v.SyncKind) {
	case "", "barrier":
		return workload.SyncBarrier, nil
	case "spinlock":
		return workload.SyncSpinlock, nil
	default:
		return 0, fmt.Errorf("config: unknown sync kind %q (use \"barrier\" or \"spinlock\")", v.SyncKind)
	}
}

// Scheduler is the JSON form of the plugged-in algorithm.
type Scheduler struct {
	// Name is one of the registered algorithms (RRS, SCS, RCS, Balance,
	// Credit).
	Name string `json:"name"`
	// EnterSkew/ExitSkew configure RCS (optional).
	EnterSkew int64 `json:"enterSkew,omitempty"`
	ExitSkew  int64 `json:"exitSkew,omitempty"`
	// Weights configures the Credit scheduler, keyed by VM index.
	Weights map[int]float64 `json:"weights,omitempty"`
	// ConcurrentVMs configures the Hybrid scheduler: VM indices to
	// gang-schedule.
	ConcurrentVMs []int `json:"concurrentVMs,omitempty"`
}

// Replications is the JSON form of the simulation controls.
type Replications struct {
	Min      int     `json:"min,omitempty"`
	Max      int     `json:"max,omitempty"`
	Level    float64 `json:"level,omitempty"`
	RelWidth float64 `json:"relWidth,omitempty"`
}

// Experiment is a complete run description.
type Experiment struct {
	PCPUs     int       `json:"pcpus"`
	Timeslice int64     `json:"timeslice"`
	VMs       []VM      `json:"vms"`
	Scheduler Scheduler `json:"scheduler"`
	// HorizonTicks is the simulated length per replication; default 20000.
	HorizonTicks int64 `json:"horizonTicks,omitempty"`
	// Seed derives all replication seeds; default 1.
	Seed uint64 `json:"seed,omitempty"`
	// Engine is "fast" (default) or "san".
	Engine       string       `json:"engine,omitempty"`
	Replications Replications `json:"replications,omitempty"`
	// Faults is an optional fault-injection campaign (SAN engine only).
	Faults *faults.Plan `json:"faults,omitempty"`
	// Contract is the determinism contract version (1 or 2); default 1,
	// the byte-frozen original variate stream. 2 selects ziggurat
	// sampling, whose trajectories are self-reproducible but diverge from
	// v1's.
	Contract int `json:"contract,omitempty"`
}

// Parse reads and validates an Experiment from JSON.
func Parse(r io.Reader) (*Experiment, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var e Experiment
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("config: decode: %w", err)
	}
	if e.HorizonTicks == 0 {
		e.HorizonTicks = 20000
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	if e.Engine == "" {
		e.Engine = "fast"
	}
	if e.Engine != "fast" && e.Engine != "san" {
		return nil, fmt.Errorf("config: engine must be \"fast\" or \"san\", got %q", e.Engine)
	}
	if e.Faults != nil && e.Engine != "san" {
		return nil, fmt.Errorf("config: fault plans perturb the SAN executive; set \"engine\": \"san\"")
	}
	if e.Contract == 0 {
		e.Contract = san.DefaultContract
	}
	if e.Contract != san.ContractV1 && e.Contract != san.ContractV2 {
		return nil, fmt.Errorf("config: contract must be %d or %d, got %d", san.ContractV1, san.ContractV2, e.Contract)
	}
	if _, err := e.SystemConfig(); err != nil {
		return nil, err
	}
	if _, err := e.SchedulerFactory(); err != nil {
		return nil, err
	}
	return &e, nil
}

// VMConfig builds the core configuration of one VM — the per-VM half of
// Experiment.SystemConfig, exported so cluster topologies reuse the same
// VM JSON schema for their per-host slot definitions.
func (v VM) VMConfig() (core.VMConfig, error) {
	dist, err := v.Load.Build()
	if err != nil {
		return core.VMConfig{}, err
	}
	kind, err := v.syncKind()
	if err != nil {
		return core.VMConfig{}, err
	}
	return core.VMConfig{
		Name:  v.Name,
		VCPUs: v.VCPUs,
		Workload: workload.Spec{
			Load:              dist,
			SyncEveryN:        v.SyncEveryN,
			SyncProbabilistic: v.SyncProbabilistic,
			SyncKind:          kind,
		},
	}, nil
}

// SystemConfig builds the core configuration.
func (e *Experiment) SystemConfig() (core.SystemConfig, error) {
	cfg := core.SystemConfig{PCPUs: e.PCPUs, Timeslice: e.Timeslice, Faults: e.Faults, Contract: e.Contract}
	for i, vm := range e.VMs {
		vmCfg, err := vm.VMConfig()
		if err != nil {
			return core.SystemConfig{}, fmt.Errorf("config: VM %d: %w", i, err)
		}
		cfg.VMs = append(cfg.VMs, vmCfg)
	}
	if err := cfg.Validate(); err != nil {
		return core.SystemConfig{}, err
	}
	return cfg, nil
}

// SchedulerFactory builds the algorithm factory.
func (e *Experiment) SchedulerFactory() (core.SchedulerFactory, error) {
	return sched.Factory(e.Scheduler.Name, sched.Params{
		Timeslice:     e.Timeslice,
		EnterSkew:     e.Scheduler.EnterSkew,
		ExitSkew:      e.Scheduler.ExitSkew,
		Weights:       e.Scheduler.Weights,
		ConcurrentVMs: e.Scheduler.ConcurrentVMs,
	})
}

// SimOptions builds the replication controls.
func (e *Experiment) SimOptions() sim.Options {
	return sim.Options{
		Level:    e.Replications.Level,
		RelWidth: e.Replications.RelWidth,
		MinReps:  e.Replications.Min,
		MaxReps:  e.Replications.Max,
		Seed:     e.Seed,
	}
}
