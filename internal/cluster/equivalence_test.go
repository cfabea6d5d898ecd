package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/obs"
	"vcpusim/internal/san"
)

// atProcs runs f once at each of GOMAXPROCS 1, 2 and 4, as subtests
// procs=N, and restores the setting afterwards. Replicate sizes its host
// pool from GOMAXPROCS, so f sees the hosts advance inline, on two
// workers and on four.
func atProcs(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			f(t)
		})
	}
}

// recordingSink keeps every span it receives, in order.
type recordingSink struct{ events []obs.Event }

func (r *recordingSink) Emit(ev obs.Event) { r.events = append(r.events, ev) }

// checkFleetInvariants checks the orchestrator's bookkeeping after a
// replication:
//
//   - VMs are conserved: resident VMs (admitted or draining) plus VMs in
//     transfer (pending admissions) plus queued VMs equal the VMs
//     admitted at t=0 plus every arrival. The count is in VMs, not
//     VCPUs: a VM takes the narrowest free slot that fits it, which may
//     be wider than the VM.
//   - Every reserved slot is the target of exactly one draining slot or
//     pending admission, and every such target is reserved; the host
//     model parks exactly the parked and reserved slots, so no slot is
//     both reserved and admitted.
//   - Downtime is non-negative, and at least the transfer delay per
//     migration.
func checkFleetInvariants(t *testing.T, o *Orchestrator, m map[string]float64) {
	t.Helper()
	initial, arrived := 0, 0
	for _, h := range o.hosts {
		for _, s := range h.slots {
			if s.startsUp {
				initial++
			}
		}
	}
	for _, a := range o.topo.Arrivals {
		arrived += a.Count
	}

	type slotRef struct{ host, slot int }
	targets := map[slotRef]int{}
	inTransfer := 0
	for _, ev := range o.events {
		if ev.kind == evAdmit {
			inTransfer++
			targets[slotRef{ev.host, ev.slot}]++
		}
	}
	resident := 0
	for _, h := range o.hosts {
		modelParked := make([]bool, len(h.slots))
		if err := o.onHost(h, func(sys *core.System) error {
			for i := range modelParked {
				modelParked[i] = sys.VMParked(i)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, s := range h.slots {
			switch s.phase {
			case slotAdmitted:
				resident++
			case slotDraining:
				resident++
				targets[slotRef{s.tgtHost, s.tgtSlot}]++
			}
			parked := s.phase == slotParked || s.phase == slotReserved
			if modelParked[i] != parked {
				t.Errorf("host %s slot %d: phase %d but model parked = %v", h.name, i, s.phase, modelParked[i])
			}
		}
	}
	if resident+inTransfer+len(o.queue) != initial+arrived {
		t.Errorf("VMs not conserved: %d resident + %d in transfer + %d queued, want %d initial + %d arrived",
			resident, inTransfer, len(o.queue), initial, arrived)
	}
	for _, h := range o.hosts {
		for i, s := range h.slots {
			n := targets[slotRef{h.id, i}]
			delete(targets, slotRef{h.id, i})
			if s.phase == slotReserved && n != 1 {
				t.Errorf("host %s slot %d: reserved, target of %d migrations", h.name, i, n)
			}
			if s.phase != slotReserved && n != 0 {
				t.Errorf("host %s slot %d: phase %d, target of %d migrations", h.name, i, s.phase, n)
			}
		}
	}
	if len(targets) != 0 {
		t.Errorf("migrations target slots that do not exist: %v", targets)
	}

	if d := m[DowntimeMetric]; d < 0 {
		t.Errorf("negative downtime %g", d)
	} else if mig := o.topo.Migration; mig != nil && d < m[MigrationsMetric]*mig.TransferDelay {
		t.Errorf("downtime %g below %g migrations × transfer delay %g", d, m[MigrationsMetric], mig.TransferDelay)
	}
}

// hostUtil reads host h's PCPU assignment fraction off its model.
func hostUtil(t *testing.T, o *Orchestrator, h *hostShard) float64 {
	t.Helper()
	var util float64
	if err := o.onHost(h, func(sys *core.System) error {
		util = float64(sys.AssignedPCPUs()) / float64(sys.NumPCPUs())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return util
}

// writeSpans prints one span per line.
func writeSpans(b *strings.Builder, spans []obs.Event) {
	for _, ev := range spans {
		fmt.Fprintf(b, "%s %v\n", ev.Kind, ev.Attrs)
	}
}

// checkSpanFixture compares got with testdata/name line by line (-update
// rewrites the fixture).
func checkSpanFixture(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateReplicateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading span fixture (record with -update): %v", err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("%s line %d: %s, fixture %s", name, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s: %d lines, fixture has %d", name, len(g)-1, len(w)-1)
	}
}

// equivalenceRun is everything a replication shows outside the
// orchestrator: the fleet map, every host's map, and the spans.
type equivalenceRun struct {
	fleet map[string]string
	hosts []map[string]string
	spans []obs.Event
}

// TestReplicateWorkerEquivalence runs the mixed fleet — least-loaded
// placement, migration, warmup and a per-group fault plan — at
// GOMAXPROCS 1 and 4, two seeds back to back on one orchestrator each,
// with a recording sink. The fleet maps, every host's map and the span
// sequences must be identical, and the spans must come in the order of
// testdata/replicate_spans.txt. That fixture was recorded on the serial
// loop, which emitted every span straight into the sink: host fault
// spans host-major within each window, dispatch and migrate spans in
// handling order. The pool buffers fault spans per host and must
// forward them in that order.
func TestReplicateWorkerEquivalence(t *testing.T) {
	topo := mixedFleetTopology(t)
	run := func(procs int) []equivalenceRun {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		o, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		var runs []equivalenceRun
		for _, seed := range []uint64{1, 2} {
			sink := &recordingSink{}
			o.SetSink(sink)
			m, err := o.Replicate(context.Background(), seed)
			if err != nil {
				t.Fatalf("procs %d seed %d: %v", procs, seed, err)
			}
			checkFleetInvariants(t, o, m)
			r := equivalenceRun{fleet: hexMap(m), spans: sink.events}
			for h := 0; h < o.NumHosts(); h++ {
				r.hosts = append(r.hosts, hexMap(o.HostMetrics(h)))
			}
			runs = append(runs, r)
		}
		return runs
	}
	serial, pooled := run(1), run(4)

	var b strings.Builder
	for _, r := range serial {
		writeSpans(&b, r.spans)
	}
	checkSpanFixture(t, "replicate_spans.txt", b.String())

	for i := range serial {
		s, p := serial[i], pooled[i]
		if !reflect.DeepEqual(s.fleet, p.fleet) {
			t.Errorf("run %d: fleet maps differ:\n%v\n%v", i, s.fleet, p.fleet)
		}
		for h := range s.hosts {
			if !reflect.DeepEqual(s.hosts[h], p.hosts[h]) {
				t.Errorf("run %d host %d: maps differ:\n%v\n%v", i, h, s.hosts[h], p.hosts[h])
			}
		}
		kinds := map[string]int{}
		for _, ev := range s.spans {
			kinds[ev.Kind]++
		}
		for _, k := range []string{obs.KindFaultInject, obs.KindFaultRecover, obs.KindDispatch, obs.KindMigrate} {
			if kinds[k] == 0 {
				t.Errorf("run %d: no %s span; the topology no longer exercises it", i, k)
			}
		}
		if len(s.spans) != len(p.spans) {
			t.Errorf("run %d: %d spans at GOMAXPROCS 1, %d at 4", i, len(s.spans), len(p.spans))
			continue
		}
		for k := range s.spans {
			if !reflect.DeepEqual(s.spans[k], p.spans[k]) {
				t.Errorf("run %d: span %d differs:\n%+v\n%+v", i, k, s.spans[k], p.spans[k])
				break
			}
		}
	}
}

// TestFailedReplicationSpans pins what a sink sees from a replication
// that fails. testdata/rcs_drain_errors.json, with a fault plan on every
// host, fails mid-window on an RCS host while a host with a higher ID
// has a fault span later in that window. The serial loop never ran that
// event: it bounded the hosts after a failure to strictly earlier
// events. The pool runs every host to the window end, and must
// forward only the spans the serial loop emitted, in its order:
// testdata/failed_spans.txt, recorded on that loop, holds each seed's
// error and spans.
func TestFailedReplicationSpans(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "rcs_drain_errors.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	topo, err := ParseTopology(f)
	if err != nil {
		t.Fatal(err)
	}
	for g := range topo.Hosts {
		topo.Hosts[g].Faults = mixedFaultPlan()
	}
	atProcs(t, func(t *testing.T) {
		var b strings.Builder
		for _, seed := range []uint64{1, 2} {
			o, err := New(topo)
			if err != nil {
				t.Fatal(err)
			}
			sink := &recordingSink{}
			o.SetSink(sink)
			if _, err := o.Replicate(context.Background(), seed); err == nil {
				t.Fatalf("seed %d: replication succeeded; the topology no longer fails", seed)
			} else {
				fmt.Fprintf(&b, "seed %d: %v\n", seed, err)
			}
			writeSpans(&b, sink.events)
		}
		checkSpanFixture(t, "failed_spans.txt", b.String())
	})
}

// TestFireHooksRunSerially installs fire hooks that share one
// unsynchronized counter across every host, as an instrument timing a
// whole fleet would. A replication that starts with hooks runs its hosts
// on one goroutine, so the count at GOMAXPROCS 4 matches GOMAXPROCS 1
// (and the race detector stays quiet); once the hooks are removed the
// next replication uses the whole pool again.
func TestFireHooksRunSerially(t *testing.T) {
	topo := mixedFleetTopology(t)
	count := func(procs int) int {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		o, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for h := 0; h < o.NumHosts(); h++ {
			o.Host(h).Instance().SetFireHooks(func(*san.Activity) { n++ }, nil)
		}
		if _, err := o.Replicate(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		if got := o.poolSize(); got != 1 {
			t.Errorf("procs %d: pool of %d workers with fire hooks installed", procs, got)
		}
		for h := 0; h < o.NumHosts(); h++ {
			o.Host(h).Instance().SetFireHooks(nil, nil)
		}
		if _, err := o.Replicate(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		if got := o.poolSize(); got != procs {
			t.Errorf("procs %d: pool of %d workers after the hooks were removed", procs, got)
		}
		return n
	}
	if serial, pooled := count(1), count(4); serial == 0 || serial != pooled {
		t.Errorf("hooks fired %d times at GOMAXPROCS 1, %d at 4", serial, pooled)
	}
}

// TestPoolSizeShare checks that replications running side by side split
// GOMAXPROCS between their host pools instead of each taking all of it,
// and that a pool never has more workers than hosts.
func TestPoolSizeShare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct{ hosts, running, want int }{
		{10, 0, 4}, {10, 1, 4}, {10, 2, 2}, {10, 3, 1}, {10, 4, 1}, {10, 16, 1}, {3, 1, 3}, {1, 1, 1},
	} {
		o, err := New(benchTopology(c.hosts, 100))
		if err != nil {
			t.Fatal(err)
		}
		replicating.Add(int64(c.running))
		got := o.poolSize()
		replicating.Add(-int64(c.running))
		if got != c.want {
			t.Errorf("%d hosts, %d replications running: pool of %d, want %d", c.hosts, c.running, got, c.want)
		}
	}
}

// TestMergeBoundsAtFailure checks the serial loop's bound on hand-made
// host states, ties included: a failure bounds the hosts after it to
// strictly earlier spans and failures, a host keeps its own spans up to
// its failure, and of two failures at one time the lower host ID wins.
func TestMergeBoundsAtFailure(t *testing.T) {
	o, err := New(benchTopology(5, 100))
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	o.SetSink(sink)
	hosts := []struct {
		spans  []float64
		failAt float64 // -1: no failure
	}{
		{[]float64{1, 5}, -1},
		{[]float64{2, 4}, 4},
		{[]float64{3, 4}, 4},
		{[]float64{2.5, 3}, 3},
		{[]float64{2, 3}, -1},
	}
	for id, c := range hosts {
		h := o.hosts[id]
		for _, at := range c.spans {
			h.spans.events = append(h.spans.events, obs.Event{Kind: fmt.Sprintf("host%d", id), Attrs: map[string]any{"t": at}})
			h.spans.at = append(h.spans.at, at)
		}
		h.err, h.failAt = nil, 0
		if c.failAt >= 0 {
			h.err, h.failAt = fmt.Errorf("host %d failed", id), c.failAt
		}
	}
	err = o.merge()
	if err == nil || err.Error() != "host 3 failed" {
		t.Errorf("merge reported %v, want host 3's failure", err)
	}
	var b strings.Builder
	writeSpans(&b, sink.events)
	want := `host0 map[t:1]
host0 map[t:5]
host1 map[t:2]
host1 map[t:4]
host2 map[t:3]
host3 map[t:2.5]
host3 map[t:3]
host4 map[t:2]
`
	if b.String() != want {
		t.Errorf("forwarded spans:\n%s\nwant:\n%s", b.String(), want)
	}
	for id, h := range o.hosts {
		if len(h.spans.events) != 0 || len(h.spans.at) != 0 {
			t.Errorf("host %d: buffer not emptied", id)
		}
	}
}
