package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"vcpusim/internal/config"
	"vcpusim/internal/core"
	"vcpusim/internal/faults"
	"vcpusim/internal/san"
)

// isolationTopology is one group of ten hosts with no arrivals and no
// migration: nothing couples the hosts, so each must run exactly as the
// same system run alone. Two of the four slots start parked, and every
// host carries a recurring crash, slow and stall campaign.
func isolationTopology(t *testing.T, contract int) *Topology {
	t.Helper()
	load := config.Distribution{Dist: "exponential", Rate: 0.25}
	topo := &Topology{
		Name:     "isolation",
		Contract: contract,
		Horizon:  300,
		Warmup:   40,
		Hosts: []HostGroup{{
			Name: "iso", Count: 10, PCPUs: 3, Scheduler: config.Scheduler{Name: "SCS"},
			Slots: []Slot{
				{VM: config.VM{VCPUs: 2, Load: load, SyncEveryN: 4}, Count: 2, Admitted: true},
				{VM: config.VM{VCPUs: 1, Load: load, SyncEveryN: 3}, Count: 2},
			},
			Faults: &faults.Plan{Faults: []faults.Spec{
				{Name: "crash1", Kind: faults.KindPCPUCrash, PCPU: 1,
					Every:    &faults.Dist{Dist: "exponential", Rate: 0.02},
					Duration: &faults.Dist{Dist: "uniform", Low: 3, High: 12}, Count: 3},
				{Name: "slow0", Kind: faults.KindPCPUSlow, PCPU: 0, Factor: 0.5,
					Every:    &faults.Dist{Dist: "exponential", Rate: 0.01},
					Duration: &faults.Dist{Dist: "deterministic", Value: 15}, Count: 2},
				{Name: "stall2", Kind: faults.KindVCPUStall, VCPU: 2,
					Every:    &faults.Dist{Dist: "exponential", Rate: 0.03},
					Duration: &faults.Dist{Dist: "deterministic", Value: 5.5}, Count: 4},
			}},
		}},
	}
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatalf("isolation topology invalid: %v", err)
	}
	return topo
}

// standaloneHost runs host h of a one-group topology alone through its
// own core.Worker: the group's config and scheduler, the topology's
// parked slots (hidden from the scheduler, generators off), seeded as
// the orchestrator seeds host h.
func standaloneHost(t *testing.T, topo *Topology, h int, seed uint64) map[string]float64 {
	t.Helper()
	hg := topo.Hosts[0]
	cfg, err := hg.systemConfig(topo.Contract)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := hg.schedulerFactory()
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWorker(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	vm := 0
	for _, s := range hg.Slots {
		for k := 0; k < s.Count; k++ {
			if !s.Admitted {
				if err := w.System().SetVMParked(vm, true); err != nil {
					t.Fatal(err)
				}
				if err := w.Instance().SetActivityEnabled(w.System().GenerateActivityName(vm), false); err != nil {
					t.Fatal(err)
				}
			}
			vm++
		}
	}
	m, err := w.RunIntervalContext(context.Background(), topo.Warmup, topo.Horizon, hostSeed(seed, h))
	if err != nil {
		t.Fatalf("standalone host %d: %v", h, err)
	}
	return m
}

// sameBits reports the first metric whose value differs bit for bit
// between got and want, or "" when the maps are identical.
func sameBits(got, want map[string]float64) string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("%s missing", k)
		}
		if math.Float64bits(g) != math.Float64bits(want[k]) {
			return fmt.Sprintf("%s = %v, standalone %v", k, g, want[k])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d metrics, standalone has %d", len(got), len(want))
	}
	return ""
}

// TestHostIsolationOracle checks that hosts share nothing: with no
// cluster event coupling them, every host's HostMetrics equals a
// standalone core.Worker run of the same config with the same parked
// slots, seeded hostSeed(seed, h). It runs under both determinism
// contracts and at GOMAXPROCS 1, 2 and 4, two seeds back to back on one
// orchestrator, with a fault campaign on every host.
func TestHostIsolationOracle(t *testing.T) {
	for _, contract := range []int{san.ContractV1, san.ContractV2} {
		t.Run(fmt.Sprintf("v%d", contract), func(t *testing.T) {
			topo := isolationTopology(t, contract)
			seeds := []uint64{5, 11}
			want := make([][]map[string]float64, len(seeds))
			for i, seed := range seeds {
				for h := 0; h < topo.NumHosts(); h++ {
					want[i] = append(want[i], standaloneHost(t, topo, h, seed))
				}
				// The oracle is only as strong as the runs differ: faults
				// must fire, and hosts must not all follow one trajectory.
				if want[i][0][faults.InjectsMetric] == 0 {
					t.Fatalf("seed %d: no fault injected on host 0", seed)
				}
				if sameBits(want[i][0], want[i][1]) == "" {
					t.Fatalf("seed %d: hosts 0 and 1 ran identical trajectories", seed)
				}
			}
			atProcs(t, func(t *testing.T) {
				o, err := New(topo)
				if err != nil {
					t.Fatal(err)
				}
				for i, seed := range seeds {
					if _, err := o.Replicate(context.Background(), seed); err != nil {
						t.Fatal(err)
					}
					for h := 0; h < o.NumHosts(); h++ {
						if d := sameBits(o.HostMetrics(h), want[i][h]); d != "" {
							t.Errorf("seed %d host %d: %s", seed, h, d)
						}
					}
				}
			})
		})
	}
}
