package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// FuzzParseTopology asserts topology parsing never panics and that every
// topology that both parses and validates expands into buildable host
// configurations — the invariant New relies on to never see a build
// error for a validated topology. Small topologies (see shortTopology)
// are also built and replicated twice with one seed on one orchestrator:
// the runs must agree bit for bit, host maps and errors included, so no
// state leaks from one replication into the next through the hosts'
// shared group shapes, and the fleet invariants must hold after each.
func FuzzParseTopology(f *testing.F) {
	f.Add(`{"hosts": [{"pcpus": 2, "slots": [{"vcpus": 1, "load": {"dist": "uniform", "low": 1, "high": 5}, "admitted": true}]}]}`)
	f.Add(`[{"pcpus": 1, "count": 3, "slots": [{"vcpus": 2, "load": {"dist": "deterministic", "value": 4}}]}]`)
	f.Add(`{"name": "dc", "placement": "least-loaded", "contract": 2, "horizon": 500, "warmup": 50,
		"hosts": [{"name": "rack", "count": 2, "pcpus": 4, "timeslice": 20,
			"scheduler": {"name": "Credit", "weights": {"0": 2}},
			"slots": [{"vcpus": 2, "load": {"dist": "exponential", "rate": 0.2}, "count": 2, "syncEveryN": 5}]}],
		"arrivals": [{"at": 10, "count": 4, "vcpus": 2}],
		"migration": {"checkEvery": 50, "highUtil": 0.8, "lowUtil": 0.4, "transferDelay": 10}}`)
	f.Add(`{"hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "geometric", "p": 0.5}}],
		"faults": [{"name": "crash", "kind": "pcpu_crash", "pcpu": 0, "at": 100}]}]}`)
	f.Add(`[{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 2}}]},
		{"pcpus": 2, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 3}}]}]`)
	f.Add(`{"horizon": 120, "warmup": 10, "placement": "least-loaded", "contract": 2,
		"hosts": [{"name": "a", "count": 3, "pcpus": 2, "scheduler": {"name": "SCS"},
			"slots": [{"vcpus": 2, "load": {"dist": "uniform", "low": 1, "high": 8}, "admitted": true, "syncEveryN": 3},
				{"vcpus": 1, "load": {"dist": "exponential", "rate": 0.3}, "count": 2}],
			"faults": [{"name": "stall", "kind": "vcpu_stall", "vcpu": 1, "every": {"dist": "exponential", "rate": 0.05},
				"duration": {"dist": "deterministic", "value": 4}, "count": 3}]},
			{"name": "b", "count": 2, "pcpus": 3, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 3}, "count": 3}]}],
		"arrivals": [{"at": 15, "count": 4, "vcpus": 1}, {"at": 40.5, "count": 2, "vcpus": 1}],
		"migration": {"checkEvery": 12, "highUtil": 0.8, "lowUtil": 0.5, "transferDelay": 6}}`)
	f.Add(`{"hosts": null}`)
	f.Add(`[]`)
	f.Add(`{"hosts": [{"pcpus": 1e9, "slots": [{"vcpus": -1, "load": {"dist": "?"}}]}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		topo, err := ParseTopology(strings.NewReader(data))
		if err != nil {
			return
		}
		// A validated topology must expand cleanly: every host group
		// yields a buildable system config and scheduler factory, and the
		// aggregate counts stay positive.
		for g, hg := range topo.Hosts {
			if _, err := hg.systemConfig(topo.Contract); err != nil {
				t.Errorf("host group %d: validated topology does not expand: %v", g, err)
			}
			if _, err := hg.schedulerFactory(); err != nil {
				t.Errorf("host group %d: validated scheduler does not build: %v", g, err)
			}
		}
		if topo.NumHosts() < 1 || topo.TotalVCPUs() < 1 {
			t.Errorf("validated topology has %d hosts / %d VCPUs", topo.NumHosts(), topo.TotalVCPUs())
		}
		if !shortTopology(topo) {
			return
		}
		o, err := New(topo)
		if err != nil {
			t.Fatalf("validated topology does not build: %v", err)
		}
		var runs [2]string
		for i := range runs {
			m, err := o.Replicate(context.Background(), topo.Seed)
			if err != nil {
				runs[i] = err.Error()
				continue
			}
			checkFleetInvariants(t, o, m)
			var b strings.Builder
			fmt.Fprintln(&b, hexMap(m))
			for h := 0; h < o.NumHosts(); h++ {
				fmt.Fprintln(&b, hexMap(o.HostMetrics(h)))
			}
			runs[i] = b.String()
		}
		if runs[0] != runs[1] {
			t.Errorf("two replications with seed %d differ:\n%s\nthen:\n%s", topo.Seed, runs[0], runs[1])
		}
	})
}

// shortTopology reports whether a validated topology is small enough to
// replicate inside a fuzz iteration: at most 16 hosts, 64 VCPUs, 64 PCPUs
// per host and a horizon of 200 ticks, with the cluster and fault event
// counts bounded too.
func shortTopology(t *Topology) bool {
	if t.NumHosts() > 16 || t.TotalVCPUs() > 64 || t.Horizon > 200 {
		return false
	}
	if m := t.Migration; m != nil && t.Horizon/m.CheckEvery > 200 {
		return false
	}
	arrivals := 0
	for _, a := range t.Arrivals {
		arrivals += a.Count
	}
	if arrivals > 256 {
		return false
	}
	for _, hg := range t.Hosts {
		if hg.PCPUs > 64 {
			return false
		}
		if hg.Faults != nil {
			injections := 0
			for _, s := range hg.Faults.Faults {
				injections += s.EffectiveCount()
			}
			if injections > 64 {
				return false
			}
		}
	}
	return true
}
