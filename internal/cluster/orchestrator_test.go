package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vcpusim/internal/config"
	"vcpusim/internal/core"
)

// fig8Topology is the paper's Figure 8 setup as a 1-host cluster: the
// degenerate case that must reproduce the single-host executive.
func fig8Topology(t *testing.T) *Topology {
	t.Helper()
	uniform := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	topo := &Topology{
		Horizon: 5000,
		Seed:    1,
		Hosts: []HostGroup{{
			PCPUs:     2,
			Timeslice: 30,
			Scheduler: config.Scheduler{Name: "RRS"},
			Slots: []Slot{
				{VM: config.VM{VCPUs: 2, Load: uniform, SyncEveryN: 5}, Admitted: true},
				{VM: config.VM{VCPUs: 1, Load: uniform, SyncEveryN: 5}, Count: 2, Admitted: true},
			},
		}},
	}
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatalf("fig8 topology invalid: %v", err)
	}
	return topo
}

// hexMap renders a metric map as name -> exact hex float for bit-level
// comparison.
func hexMap(m map[string]float64) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = strconv.FormatFloat(v, 'x', -1, 64)
	}
	return out
}

// TestDegenerateSingleHostMatchesGolden is the cluster's anchor to the
// frozen single-host contract: a 1-host orchestrator whose slots are all
// admitted from t=0 (pass-through placement, no cluster events) must
// reproduce the existing golden fixture byte for byte — same seed
// derivation, same trajectory, same reward bits.
func TestDegenerateSingleHostMatchesGolden(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden_determinism.json"))
	if err != nil {
		t.Fatalf("reading single-host golden fixture: %v", err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	want, ok := golden["fig8/RRS/seed1"]
	if !ok {
		t.Fatal("golden fixture has no fig8/RRS/seed1 entry")
	}

	o, err := New(fig8Topology(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Replicate(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	got := hexMap(o.HostMetrics(0))
	if len(got) != len(want) {
		t.Errorf("host 0 metric count %d, want %d", len(got), len(want))
	}
	for name, wantHex := range want {
		if got[name] != wantHex {
			t.Errorf("metric %s = %s, want %s (degenerate 1-host cluster diverged from the single-host executive)",
				name, got[name], wantHex)
		}
	}
}

// TestReplicateDeterministic pins the orchestrator's own reproducibility:
// same topology, same seed, two fresh orchestrators — identical fleet
// metrics bit for bit, and a different seed must actually change them.
func TestReplicateDeterministic(t *testing.T) {
	topo := multiHostTopology(t, 3)
	run := func(seed uint64) (map[string]string, map[string]string) {
		o, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		m, err := o.Replicate(context.Background(), seed)
		if err != nil {
			t.Fatal(err)
		}
		return hexMap(m), hexMap(o.HostMetrics(0))
	}
	a, ha := run(11)
	b, hb := run(11)
	if fmt.Sprint(a) != fmt.Sprint(b) || fmt.Sprint(ha) != fmt.Sprint(hb) {
		t.Fatalf("same-seed cluster replications diverged:\n%v\n%v", a, b)
	}
	// A different seed must change the trajectory. The fleet means can
	// saturate to constants, so the seed sensitivity is asserted on host
	// 0's job throughput.
	_, hc := run(12)
	if fmt.Sprint(ha) == fmt.Sprint(hc) {
		t.Fatal("different seeds produced identical host-0 metrics")
	}
}

// multiHostTopology builds n small hosts with arrivals that must queue
// and then place as capacity is provisioned, exercising dispatch.
func multiHostTopology(t *testing.T, n int) *Topology {
	t.Helper()
	uniform := config.Distribution{Dist: "uniform", Low: 1, High: 6}
	topo := &Topology{
		Horizon:   600,
		Seed:      1,
		Placement: "round-robin",
		Hosts: []HostGroup{{
			Count:     n,
			PCPUs:     2,
			Timeslice: 10,
			Scheduler: config.Scheduler{Name: "RRS"},
			Slots: []Slot{
				{VM: config.VM{VCPUs: 2, Load: uniform}, Admitted: true},
				{VM: config.VM{VCPUs: 1, Load: uniform}, Count: 2},
			},
		}},
		Arrivals: []Arrival{
			{At: 50, Count: n, VCPUs: 1},
			{At: 100, Count: 2 * n, VCPUs: 1},
		},
	}
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatalf("topology invalid: %v", err)
	}
	return topo
}

// TestDispatchAndQueue checks arrival routing: the first batch fits (one
// free 1-wide slot per host), the second exceeds capacity and queues.
func TestDispatchAndQueue(t *testing.T) {
	topo := multiHostTopology(t, 3)
	o, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	m, err := o.Replicate(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// 6 free 1-wide slots total, 9 arrivals: 6 placed, 3 queued at end.
	if got := m[DispatchesMetric]; got != 6 {
		t.Errorf("dispatches = %g, want 6", got)
	}
	if got := m[QueuedAtEndMetric]; got != 3 {
		t.Errorf("queued = %g, want 3", got)
	}
	if m[FleetAvailMetric] <= 0 || m[FleetAvailMetric] > 1 {
		t.Errorf("fleet availability %g outside (0, 1]", m[FleetAvailMetric])
	}
}

// TestMigrationLifecycle drives a deliberately skewed 2-host cluster —
// one saturated host, one empty — through the drain / transfer-delay /
// re-admit protocol and checks the accounting.
func TestMigrationLifecycle(t *testing.T) {
	uniform := config.Distribution{Dist: "uniform", Low: 1, High: 6}
	topo := &Topology{
		Horizon:   2000,
		Seed:      1,
		Placement: "first-fit",
		Hosts: []HostGroup{
			{
				Name: "hot", PCPUs: 1, Timeslice: 10,
				Scheduler: config.Scheduler{Name: "RRS"},
				Slots: []Slot{
					{VM: config.VM{VCPUs: 1, Load: uniform}, Admitted: true},
					{VM: config.VM{VCPUs: 1, Load: uniform}, Admitted: true},
				},
			},
			{
				Name: "cold", PCPUs: 2, Timeslice: 10,
				Scheduler: config.Scheduler{Name: "RRS"},
				Slots: []Slot{
					{VM: config.VM{VCPUs: 1, Load: uniform}, Count: 2},
				},
			},
		},
		Migration: &Migration{CheckEvery: 100, HighUtil: 0.9, LowUtil: 0.5, TransferDelay: 25},
	}
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	o, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	m, err := o.Replicate(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if m[MigrationsMetric] < 1 {
		t.Fatalf("expected at least one migration off the saturated host, got %g", m[MigrationsMetric])
	}
	// Downtime includes the transfer delay for every migration.
	if min := m[MigrationsMetric] * 25; m[DowntimeMetric] < min {
		t.Errorf("downtime %g below the transfer-delay floor %g", m[DowntimeMetric], min)
	}
	// The run stays deterministic under migration.
	o2, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := o2.Replicate(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(hexMap(m)) != fmt.Sprint(hexMap(m2)) {
		t.Fatal("migration run not reproducible")
	}
}

// TestPlacementPolicies pins each policy's routing on a hand-built
// snapshot.
func TestPlacementPolicies(t *testing.T) {
	hosts := []HostLoad{
		{ID: 0, PCPUs: 4, AdmittedVCPUs: 4, Fits: true},
		{ID: 1, PCPUs: 4, AdmittedVCPUs: 1, Fits: true},
		{ID: 2, PCPUs: 4, AdmittedVCPUs: 0, Fits: false},
		{ID: 3, PCPUs: 4, AdmittedVCPUs: 2, Fits: true},
	}
	ll, _ := policyFor("least-loaded")
	if got := ll.Place(1, hosts); got != 1 {
		t.Errorf("least-loaded picked %d, want 1", got)
	}
	ff, _ := policyFor("first-fit")
	if got := ff.Place(1, hosts); got != 0 {
		t.Errorf("first-fit picked %d, want 0", got)
	}
	rr, _ := policyFor("ROUND-ROBIN") // case-insensitive
	if got := rr.Place(1, hosts); got != 0 {
		t.Errorf("round-robin first pick %d, want 0", got)
	}
	if got := rr.Place(1, hosts); got != 1 {
		t.Errorf("round-robin second pick %d, want 1", got)
	}
	if got := rr.Place(1, hosts); got != 3 {
		t.Errorf("round-robin third pick %d, want 3 (2 does not fit)", got)
	}
	if _, err := policyFor("best-effort"); err == nil {
		t.Error("unknown policy accepted")
	}
	none := []HostLoad{{ID: 0, Fits: false}}
	for _, p := range []PlacementPolicy{ll, ff, rr} {
		if got := p.Place(1, none); got != -1 {
			t.Errorf("%s placed on a full cluster: %d", p.Name(), got)
		}
	}
}

// TestParseTopology covers the strict-decode contract: defaults, the
// bare-array form, unknown-field rejection, and validation errors.
func TestParseTopology(t *testing.T) {
	obj := `{
		"name": "t",
		"hosts": [{"pcpus": 2, "slots": [{"vcpus": 1, "load": {"dist": "uniform", "low": 1, "high": 5}, "admitted": true}]}]
	}`
	topo, err := ParseTopology(strings.NewReader(obj))
	if err != nil {
		t.Fatalf("object form: %v", err)
	}
	if topo.Horizon != 20000 || topo.Seed != 1 || topo.Placement != "round-robin" {
		t.Errorf("defaults not applied: %+v", topo)
	}
	if topo.Hosts[0].Count != 1 || topo.Hosts[0].Timeslice != 30 || topo.Hosts[0].Scheduler.Name != "RRS" {
		t.Errorf("host defaults not applied: %+v", topo.Hosts[0])
	}
	if topo.NumHosts() != 1 || topo.TotalVCPUs() != 1 {
		t.Errorf("NumHosts/TotalVCPUs = %d/%d, want 1/1", topo.NumHosts(), topo.TotalVCPUs())
	}

	bare := `[{"pcpus": 2, "count": 3, "slots": [{"vcpus": 2, "load": {"dist": "deterministic", "value": 4}}]}]`
	topo, err = ParseTopology(strings.NewReader(bare))
	if err != nil {
		t.Fatalf("bare array form: %v", err)
	}
	if topo.NumHosts() != 3 || topo.TotalVCPUs() != 6 {
		t.Errorf("bare form NumHosts/TotalVCPUs = %d/%d, want 3/6", topo.NumHosts(), topo.TotalVCPUs())
	}

	for name, bad := range map[string]string{
		"unknown field":      `{"hosts": [], "surprise": 1}`,
		"unknown host field": `{"hosts": [{"pcpus": 1, "cpus": 2, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}]}`,
		"no hosts":           `{"hosts": []}`,
		"no slots":           `{"hosts": [{"pcpus": 1, "slots": []}]}`,
		"bad placement":      `{"placement": "psychic", "hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}]}`,
		"bad contract":       `{"contract": 9, "hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}]}`,
		"arrival too wide":   `{"hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}], "arrivals": [{"at": 1, "vcpus": 9}]}`,
		"arrival past end":   `{"horizon": 100, "hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}], "arrivals": [{"at": 100, "vcpus": 1}]}`,
		"bad thresholds":     `{"hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}], "migration": {"checkEvery": 10, "highUtil": 0.3, "lowUtil": 0.6, "transferDelay": 1}}`,
		"bad workload":       `{"hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "uniform", "low": 5, "high": 1}}]}]}`,
		"too many vcpus":     `{"hosts": [{"pcpus": 1, "slots": [{"vcpus": 4, "count": 8, "load": {"dist": "deterministic", "value": 1}}]}]}`,
	} {
		if _, err := ParseTopology(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestHostSeedDerivation pins the seed spread: host 0 inherits the
// replication seed unchanged (the degenerate-identity requirement) and
// other hosts get distinct streams.
func TestHostSeedDerivation(t *testing.T) {
	if hostSeed(42, 0) != 42 {
		t.Fatalf("hostSeed(42, 0) = %d, want 42", hostSeed(42, 0))
	}
	seen := map[uint64]bool{}
	for h := 0; h < 100; h++ {
		s := hostSeed(42, h)
		if seen[s] {
			t.Fatalf("duplicate host seed at host %d", h)
		}
		seen[s] = true
	}
}

// TestPolicyNamesCaseInsensitive checks that placement policy names and
// their short forms resolve regardless of letter case.
func TestPolicyNamesCaseInsensitive(t *testing.T) {
	for name, want := range map[string]string{
		"Least-Loaded": "least-loaded",
		"LL":           "least-loaded",
		"RR":           "round-robin",
		"Round-Robin":  "round-robin",
		"First-FIT":    "first-fit",
		"Ff":           "first-fit",
	} {
		p, err := policyFor(name)
		if err != nil {
			t.Errorf("policyFor(%q): %v", name, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("policyFor(%q) = %s, want %s", name, p.Name(), want)
		}
	}
}

// TestPlaceSurfacesAdmitError checks that a failed admission fails the
// arrival with the host and slot named, instead of queueing the VM.
func TestPlaceSurfacesAdmitError(t *testing.T) {
	o, err := New(fig8Topology(t))
	if err != nil {
		t.Fatal(err)
	}
	// A phantom slot with no VM behind it in the host's system: the policy
	// and fits() accept it, and admission must then fail.
	h := o.hosts[0]
	phantom := len(h.slots)
	h.slots = append(h.slots, slotState{vcpus: 8, phase: slotParked})
	h.genEnabled = append(h.genEnabled, false)
	err = o.handle(clusterEvent{kind: evArrival, count: 1, vcpus: 8})
	if err == nil {
		t.Fatal("failed admission was swallowed")
	}
	want := fmt.Sprintf("host %s: admitting slot %d", h.name, phantom)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
	if len(o.queue) != 0 {
		t.Errorf("VM queued after a failed admission: %d queued", len(o.queue))
	}
}

// TestReplicateErrorParity pins which failure a replication reports when
// several hosts fail between the same two cluster events. On
// testdata/rcs_drain_errors.json RCS hosts become migration sources and
// hit a known scheduler defect (RCS preempts the parked VCPUs of a VM
// drained off while in co-scheduling mode) on the same tick; the
// replication must report the failure that global (event time, host ID)
// order reaches first. The expected strings were recorded on the
// one-event-at-a-time host ordering.
func TestReplicateErrorParity(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "rcs_drain_errors.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	topo, err := ParseTopology(f)
	if err != nil {
		t.Fatal(err)
	}
	atProcs(t, func(t *testing.T) {
		for seed, want := range map[uint64]string{
			1: `cluster: host rcs-2: core: scheduler "RCS" preempted inactive VCPU 0`,
			2: `cluster: host rcs-0: core: scheduler "RCS" preempted inactive VCPU 0`,
		} {
			o, err := New(topo)
			if err != nil {
				t.Fatal(err)
			}
			_, err = o.Replicate(context.Background(), seed)
			if err == nil || err.Error() != want {
				t.Errorf("seed %d: error %v, want %q", seed, err, want)
			}
		}
	})
}

// TestReplicateCancelled checks that a replication under an already
// cancelled context stops with an error wrapping context.Canceled.
func TestReplicateCancelled(t *testing.T) {
	o, err := New(benchTopology(100, 500))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	atProcs(t, func(t *testing.T) {
		if _, err := o.Replicate(ctx, 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v does not wrap context.Canceled", err)
		}
	})
}

// TestAdvanceHostsReportsEarliestFailure checks a window's failure order
// when hosts fail at different times: host 0, advanced first, fails later
// than host 1, so (event time, host ID) order reaches host 1's failure
// first. The failures are provoked through the RCS defect of
// TestReplicateErrorParity: with an exit skew of zero a VM never leaves
// co-scheduling mode, and parking it makes the next co-stop preempt its
// parked VCPUs.
func TestAdvanceHostsReportsEarliestFailure(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		uniform := config.Distribution{Dist: "uniform", Low: 1, High: 10}
		topo := &Topology{
			Horizon: 200,
			Hosts: []HostGroup{{
				Name: "rcs", Count: 2, PCPUs: 1,
				Scheduler: config.Scheduler{Name: "RCS", EnterSkew: 1},
				Slots: []Slot{
					{VM: config.VM{VCPUs: 2, Load: uniform, SyncEveryN: 3}, Admitted: true},
					{VM: config.VM{VCPUs: 1, Load: uniform, SyncEveryN: 3}, Count: 2, Admitted: true},
				},
			}},
		}
		topo.applyDefaults()
		o, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.arm(1); err != nil {
			t.Fatal(err)
		}
		// Park each host's 2-VCPU VM after the given time.
		for h, at := range []float64{80, 30} {
			host := o.hosts[h]
			if err := o.onHost(host, func(sys *core.System) error {
				for host.inst.PeekNextEventTime() < at {
					if err := host.inst.ProcessNextEvent(); err != nil {
						t.Fatalf("host %d before parking: %v", h, err)
					}
				}
				return sys.SetVMParked(0, true)
			}); err != nil {
				t.Fatal(err)
			}
		}
		err = o.advanceHosts(context.Background(), topo.Horizon)
		want := `cluster: host rcs-1: core: scheduler "RCS" preempted inactive VCPU`
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("error %v, want prefix %q", err, want)
		}
	})
}

// pickPolicy is a placement policy that always picks one host, fitting
// or not.
type pickPolicy struct{ host int }

func (p pickPolicy) Name() string              { return "pick" }
func (p pickPolicy) Place(int, []HostLoad) int { return p.host }

// TestPlaceRejectsPolicyMisfit checks that a policy choosing a host with
// no fitting slot fails the arrival with the policy, host and VM width
// named instead of queueing the VM.
func TestPlaceRejectsPolicyMisfit(t *testing.T) {
	o, err := New(fig8Topology(t))
	if err != nil {
		t.Fatal(err)
	}
	// Once armed, fig8's only host has every slot admitted.
	if err := o.arm(1); err != nil {
		t.Fatal(err)
	}
	o.policy = pickPolicy{host: 0}
	err = o.handle(clusterEvent{kind: evArrival, count: 1, vcpus: 1})
	want := "placement policy pick picked host host-0, which has no free slot for a 1-VCPU VM"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error %v, want %q", err, want)
	}
	if len(o.queue) != 0 {
		t.Errorf("VM queued after a policy misfit: %d queued", len(o.queue))
	}
}

// TestValidateRejectsNonFinite checks that every topology time and
// threshold must be finite. JSON cannot carry NaN or infinities, but a
// topology built in Go can, and a NaN arrival time used to pass
// validation and then run every host past the horizon until the context
// was cancelled.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Topology, float64)
	}{
		{"horizon", func(t *Topology, v float64) { t.Horizon = v }},
		{"warmup", func(t *Topology, v float64) { t.Warmup = v }},
		{"arrival 0 time", func(t *Topology, v float64) { t.Arrivals[0].At = v }},
		{"migration checkEvery", func(t *Topology, v float64) { t.Migration.CheckEvery = v }},
		{"migration transferDelay", func(t *Topology, v float64) { t.Migration.TransferDelay = v }},
		{"migration lowUtil", func(t *Topology, v float64) { t.Migration.LowUtil = v }},
		{"migration highUtil", func(t *Topology, v float64) { t.Migration.HighUtil = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			topo := benchTopology(2, 100)
			if err := topo.Validate(); err != nil {
				t.Fatalf("base topology invalid: %v", err)
			}
			f.set(topo, v)
			want := fmt.Sprintf("cluster: %s must be finite, got %g", f.name, v)
			if err := topo.Validate(); err == nil || err.Error() != want {
				t.Errorf("%s = %g: Validate error %v, want %q", f.name, v, err, want)
			}
			if _, err := New(topo); err == nil {
				t.Errorf("%s = %g: New accepted the topology", f.name, v)
			}
		}
	}
}

// TestRoundRobinRestartsEachReplication checks that a replication is a
// pure function of its seed under round-robin placement: the policy's
// cursor used to carry over from one replication to the next on the same
// orchestrator, so the second run of a seed placed its VM on another host
// than the first.
func TestRoundRobinRestartsEachReplication(t *testing.T) {
	topo := benchTopology(4, 100)
	topo.Placement = "round-robin"
	topo.Migration = nil
	topo.Arrivals = []Arrival{{At: 10, Count: 1, VCPUs: 1}}
	o, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]string
	for i := range runs {
		if _, err := o.Replicate(context.Background(), 3); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < o.NumHosts(); h++ {
			runs[i] += fmt.Sprintln(hexMap(o.HostMetrics(h)))
		}
	}
	if runs[0] != runs[1] {
		t.Errorf("two replications of seed 3 differ:\n%s\nthen:\n%s", runs[0], runs[1])
	}
}

// TestValidateRejectsDuplicateHostNames checks that two host groups
// cannot produce hosts of the same name — an unnamed group's hosts are
// host-0, host-1, … — since errors and spans name hosts, and both groups
// would otherwise report a host-0.
func TestValidateRejectsDuplicateHostNames(t *testing.T) {
	for _, c := range []struct {
		names []string
		want  string
	}{
		{[]string{"", ""}, `cluster: host groups 0 and 1 are both named "host", so their hosts' names collide`},
		{[]string{"rack", "edge", "rack"}, `cluster: host groups 0 and 2 are both named "rack", so their hosts' names collide`},
		{[]string{"edge", "", "host"}, `cluster: host groups 1 and 2 are both named "host", so their hosts' names collide`},
	} {
		topo := benchTopology(2, 100)
		group := topo.Hosts[0]
		topo.Hosts = nil
		for _, name := range c.names {
			group.Name = name
			topo.Hosts = append(topo.Hosts, group)
		}
		if err := topo.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("groups %q: Validate error %v, want %q", c.names, err, c.want)
		}
		if _, err := New(topo); err == nil {
			t.Errorf("groups %q: New accepted the topology", c.names)
		}
	}
	topo := benchTopology(2, 100)
	topo.Hosts = append(topo.Hosts, topo.Hosts[0])
	topo.Hosts[1].Name = "node2"
	if err := topo.Validate(); err != nil {
		t.Errorf("distinct names rejected: %v", err)
	}
}

// TestMigrationScanWideTies replays the original scan (see
// migration_oracle_test.go) on one check of a 200-host fleet: 100
// overloaded sources, then 100 targets whose utilizations alternate
// between 1/2 and 1/4 by host ID. The candidate list is far longer than
// the sort's insertion-sort cutoff, so only the ID tie-break keeps equal
// utilizations in ID order.
func TestMigrationScanWideTies(t *testing.T) {
	load := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	vm := config.VM{VCPUs: 1, Load: load, SyncEveryN: 5}
	topo := &Topology{
		Horizon:   1000,
		Hosts:     []HostGroup{{Name: "hot", Count: 100, PCPUs: 2, Slots: []Slot{{VM: vm, Count: 3, Admitted: true}}}},
		Migration: &Migration{CheckEvery: 50, HighUtil: 0.85, LowUtil: 0.6, TransferDelay: 5},
	}
	for i := 0; i < 100; i++ {
		topo.Hosts = append(topo.Hosts, HostGroup{
			Name: fmt.Sprintf("cold%d", i), PCPUs: 2 + 2*(i%2),
			Slots: []Slot{{VM: vm, Admitted: true}, {VM: vm, Count: 2}},
		})
	}
	topo.applyDefaults()
	o, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.arm(1); err != nil {
		t.Fatal(err)
	}
	if err := o.advanceHosts(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	fleet := make([]oracleHost, len(o.hosts))
	for id, h := range o.hosts {
		fleet[id] = oracleHost{
			util:  hostUtil(t, o, h),
			slots: append([]slotState(nil), h.slots...),
		}
	}
	want := oraclePhase2(fleet, topo.Migration)
	if err := o.migrationCheck(50); err != nil {
		t.Fatal(err)
	}
	var got []oracleDrain
	for id, h := range o.hosts {
		for i, s := range h.slots {
			if s.phase == slotDraining {
				got = append(got, oracleDrain{id, i, s.tgtHost, s.tgtSlot})
			}
		}
	}
	if len(want) < 20 {
		t.Fatalf("only %d drains; the fleet no longer exercises long tie runs", len(want))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("drains %v\noriginal scan %v", got, want)
	}
}
