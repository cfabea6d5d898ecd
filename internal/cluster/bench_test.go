package cluster

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"vcpusim/internal/config"
)

// benchTopology builds an n-host fleet for throughput measurement: every
// host is a 2-PCPU machine with one resident 2-VCPU VM and two parked
// 1-VCPU slots, an arrival wave dispatches one 1-VCPU VM per host, and
// threshold migration is armed — so the measured path includes the
// windowed host advance, the cluster event queue, placement, and
// migration, not just the per-host step loop.
func benchTopology(hosts int, horizon float64) *Topology {
	load := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	t := &Topology{
		Horizon:   horizon,
		Placement: "least-loaded",
		Hosts: []HostGroup{{
			Name:  "node",
			Count: hosts,
			PCPUs: 2,
			Slots: []Slot{
				{VM: config.VM{VCPUs: 2, Load: load, SyncEveryN: 5}, Admitted: true},
				{VM: config.VM{VCPUs: 1, Load: load, SyncEveryN: 5}, Count: 2},
			},
		}},
		Arrivals: []Arrival{{At: 0.2 * horizon, Count: hosts, VCPUs: 1}},
		Migration: &Migration{
			CheckEvery:    horizon / 20,
			HighUtil:      0.85,
			LowUtil:       0.6,
			TransferDelay: horizon / 100,
		},
	}
	t.applyDefaults()
	return t
}

// BenchmarkClusterReplicate measures whole-cluster replication
// throughput (SAN events per second across all hosts) at three fleet
// sizes. The horizon shrinks as the fleet grows so one op stays a
// comparable amount of total work; events/s is the scale-free number.
// Orchestrator construction (compiling every host) is outside the
// timed region — the pooled executive pays it once per worker slot.
func BenchmarkClusterReplicate(b *testing.B) {
	cases := []struct {
		hosts   int
		horizon float64
	}{
		{10, 2000},
		{100, 500},
		{1000, 50},
		{3000, 50.0 / 3},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("hosts=%d", c.hosts), func(b *testing.B) {
			topo := benchTopology(c.hosts, c.horizon)
			o, err := New(topo)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			var events uint64
			for i := 0; i < b.N; i++ {
				if _, err := o.Replicate(ctx, uint64(i+1)); err != nil {
					b.Fatal(err)
				}
				events += o.LastStats().Events
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(events)/secs, "events/s")
			}
		})
	}
}

// BenchmarkClusterNew measures building an orchestrator: one shape per
// host group and one state per host. Besides the per-op figures it
// reports time, bytes and allocations per host, which stay flat as the
// fleet grows when hosts share their group's shape.
func BenchmarkClusterNew(b *testing.B) {
	for _, hosts := range []int{100, 1000, 3000} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			topo := benchTopology(hosts, 200)
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(topo); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * hosts)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/host")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/host")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/host")
		})
	}
}

// TestNewAllocsPerHost pins what one more host costs New: hosts share
// their group's shape, so a host adds only its own state — its SAN
// instance, workload streams and slot bookkeeping — and never a model or
// a compiled program (about 650 allocations a host when every host built
// its own). The bound is the count measured when the sharing landed:
// 44.7, and 45.3 under the race detector.
func TestNewAllocsPerHost(t *testing.T) {
	const n, bound = 200, 46
	allocs := func(hosts int) float64 {
		topo := benchTopology(hosts, 200)
		return testing.AllocsPerRun(5, func() {
			if _, err := New(topo); err != nil {
				t.Fatal(err)
			}
		})
	}
	if perHost := (allocs(2*n) - allocs(n)) / n; perHost > bound {
		t.Errorf("New allocates %.2f times per added host, want at most %d", perHost, bound)
	}
}
