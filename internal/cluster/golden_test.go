package cluster

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"vcpusim/internal/config"
	"vcpusim/internal/faults"
)

var updateReplicateGolden = flag.Bool("update", false, "rewrite the multi-host replication golden fixtures from the current orchestrator")

// mixedFaultPlan slows PCPU 0 and stalls VCPU 1 a few times per host.
func mixedFaultPlan() *faults.Plan {
	return &faults.Plan{Faults: []faults.Spec{
		{Name: "slow0", Kind: faults.KindPCPUSlow, PCPU: 0, Factor: 0.5,
			Every:    &faults.Dist{Dist: "exponential", Rate: 0.01},
			Duration: &faults.Dist{Dist: "uniform", Low: 5, High: 20}, Count: 3},
		{Name: "stall1", Kind: faults.KindVCPUStall, VCPU: 1,
			Every:    &faults.Dist{Dist: "exponential", Rate: 0.02},
			Duration: &faults.Dist{Dist: "deterministic", Value: 6.5}, Count: 4},
	}}
}

// mixedFleetTopology is a 40-host RRS/RCS fleet with every cluster
// mechanism armed at once: least-loaded placement of two arrival waves,
// threshold migration off the overloaded RRS hosts, a measurement window
// that starts after a warmup, and a recurring fault campaign on the RRS
// group. The RCS hosts provision at most 3 VCPUs on 4 PCPUs, so they take
// migrations but never become a migration source.
func mixedFleetTopology(t *testing.T) *Topology {
	t.Helper()
	slot := func(vcpus, count int, admitted bool) Slot {
		return Slot{
			VM: config.VM{
				VCPUs:      vcpus,
				Load:       config.Distribution{Dist: "uniform", Low: 1, High: 10},
				SyncEveryN: 5,
			},
			Count:    count,
			Admitted: admitted,
		}
	}
	topo := &Topology{
		Name:      "golden-mixed",
		Horizon:   400,
		Warmup:    60,
		Placement: "least-loaded",
		Hosts: []HostGroup{
			{
				Name: "rrs", Count: 24, PCPUs: 2, Scheduler: config.Scheduler{Name: "RRS"},
				Slots:  []Slot{slot(1, 1, true), slot(2, 1, true), slot(2, 1, false)},
				Faults: mixedFaultPlan(),
			},
			{
				Name: "rcs", Count: 16, PCPUs: 4, Scheduler: config.Scheduler{Name: "RCS"},
				Slots: []Slot{slot(2, 1, true), slot(1, 1, false)},
			},
		},
		Arrivals: []Arrival{
			{At: 45.25, Count: 10, VCPUs: 1},
			{At: 130.5, Count: 8, VCPUs: 2},
		},
		Migration: &Migration{CheckEvery: 30, HighUtil: 0.85, LowUtil: 0.6, TransferDelay: 7.5},
	}
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatalf("mixed fleet topology invalid: %v", err)
	}
	return topo
}

// integerTieTopology puts every cluster event on an integer time, where
// host scheduler ticks also fall: arrivals coincide with migration
// checks, and the transfer delay equals the check period, so each
// re-admission ties with the next check. It pins the tie order — cluster
// events in push order ahead of host events at the same time.
func integerTieTopology(t *testing.T) *Topology {
	t.Helper()
	load := config.Distribution{Dist: "uniform", Low: 1, High: 6}
	topo := &Topology{
		Name:      "golden-ties",
		Horizon:   300,
		Placement: "first-fit",
		Hosts: []HostGroup{
			{
				Name: "hot", Count: 3, PCPUs: 1, Timeslice: 10,
				Slots: []Slot{
					{VM: config.VM{VCPUs: 1, Load: load, SyncEveryN: 3}, Count: 2, Admitted: true},
					{VM: config.VM{VCPUs: 1, Load: load, SyncEveryN: 3}},
				},
			},
			{
				Name: "cold", Count: 3, PCPUs: 2, Timeslice: 10,
				Slots: []Slot{
					{VM: config.VM{VCPUs: 1, Load: load, SyncEveryN: 3}, Count: 3},
				},
			},
		},
		Arrivals: []Arrival{
			{At: 20, Count: 2, VCPUs: 1},
			{At: 40, Count: 4, VCPUs: 1},
			{At: 100, Count: 3, VCPUs: 1},
		},
		Migration: &Migration{CheckEvery: 20, HighUtil: 0.9, LowUtil: 0.6, TransferDelay: 20},
	}
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatalf("tie topology invalid: %v", err)
	}
	return topo
}

// replicateGolden is one pinned replication: the fleet metric map and
// every host's raw metric map, as exact hex floats.
type replicateGolden struct {
	Fleet map[string]string   `json:"fleet"`
	Hosts []map[string]string `json:"hosts"`
}

// TestReplicateGolden pins whole multi-host replications bit for bit:
// round-robin placement with queueing, a mixed fleet with migration,
// warmup and faults, and a topology whose cluster events tie with host
// ticks. Each case runs two seeds back to back on one orchestrator, so
// the fixture also covers the reuse of a pooled orchestrator across
// replications. The replications run at GOMAXPROCS 1, 2 and 4, and the
// fleet invariants are checked after each.
func TestReplicateGolden(t *testing.T) {
	path := filepath.Join("testdata", "replicate_golden.json")
	if *updateReplicateGolden {
		buf, err := json.MarshalIndent(replicateGoldenRuns(t), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (record with -update): %v", err)
	}
	var want map[string]replicateGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	atProcs(t, func(t *testing.T) {
		got := replicateGoldenRuns(t)
		if len(got) != len(want) {
			t.Errorf("%d pinned replications, fixture has %d", len(got), len(want))
		}
		for key, w := range want {
			g, ok := got[key]
			if !ok {
				t.Errorf("%s: not run", key)
				continue
			}
			diffHex(t, key+" fleet", g.Fleet, w.Fleet)
			if len(g.Hosts) != len(w.Hosts) {
				t.Errorf("%s: %d hosts, fixture has %d", key, len(g.Hosts), len(w.Hosts))
				continue
			}
			for h := range w.Hosts {
				diffHex(t, key+" "+HostMetric(h, ""), g.Hosts[h], w.Hosts[h])
			}
		}
	})
}

// replicateGoldenRuns runs the pinned replications, checking the fleet
// invariants after each.
func replicateGoldenRuns(t *testing.T) map[string]replicateGolden {
	t.Helper()
	cases := []struct {
		name  string
		topo  *Topology
		seeds []uint64
	}{
		{"multi-host", multiHostTopology(t, 3), []uint64{11, 12}},
		{"mixed-fleet", mixedFleetTopology(t), []uint64{1, 2}},
		{"integer-ties", integerTieTopology(t), []uint64{3, 4}},
	}
	got := map[string]replicateGolden{}
	for _, c := range cases {
		o, err := New(c.topo)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, seed := range c.seeds {
			m, err := o.Replicate(context.Background(), seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			checkFleetInvariants(t, o, m)
			g := replicateGolden{Fleet: hexMap(m)}
			for h := 0; h < o.NumHosts(); h++ {
				g.Hosts = append(g.Hosts, hexMap(o.HostMetrics(h)))
			}
			got[c.name+"/seed"+strconv.FormatUint(seed, 10)] = g
		}
	}
	return got
}

// diffHex reports every metric whose hex float differs from the fixture.
func diffHex(t *testing.T, where string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, fixture has %d", where, len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %s = %s, want %s", where, name, got[name], w)
		}
	}
}
