package fastsim

import (
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

// TestRunIntervalAllocFree pins that the tick loop allocates nothing in
// steady state: after a replication's first ticks have sized the reused
// buffers, further ticks allocate nothing, for every scheduler on a
// contended host with barrier and spinlock VMs.
func TestRunIntervalAllocFree(t *testing.T) {
	spin := uniWL(3)
	spin.SyncKind = workload.SyncSpinlock
	cfg := core.SystemConfig{
		PCPUs:     3,
		Timeslice: 7,
		VMs: []core.VMConfig{
			{VCPUs: 2, Workload: uniWL(4)},
			{VCPUs: 3, Workload: spin},
			{VCPUs: 1, Workload: uniWL(0)},
			{VCPUs: 2, Workload: uniWL(2)},
		},
	}
	for _, name := range []string{"RRS", "SCS", "RCS", "Credit", "Hybrid"} {
		t.Run(name, func(t *testing.T) {
			factory, err := sched.Factory(name, sched.Params{Timeslice: 7, ConcurrentVMs: []int{1}})
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(cfg, factory(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.RunInterval(0, 2000); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(2000, func() {
				if err := e.tick(); err != nil {
					t.Fatal(err)
				}
				e.now++
			})
			if allocs != 0 {
				t.Fatalf("a steady-state tick allocates %v times", allocs)
			}
		})
	}
}
