package sched

import (
	"testing"

	"vcpusim/internal/core"
)

// benchViews builds a mid-size system state for scheduler benchmarks.
func benchViews() ([]core.VCPUView, []core.PCPUView) {
	var vcpus []core.VCPUView
	id := 0
	for vm, size := range []int{2, 3, 2, 1} {
		for k := 0; k < size; k++ {
			vcpus = append(vcpus, core.VCPUView{
				ID: id, VM: vm, Sibling: k, Status: core.Inactive, PCPU: -1,
			})
			id++
		}
	}
	pcpus := make([]core.PCPUView, 4)
	for p := range pcpus {
		pcpus[p] = core.PCPUView{ID: p, VCPU: -1}
	}
	return vcpus, pcpus
}

// benchSchedule reuses one Actions, as both engines do, so the reported
// allocations are the scheduler's own.
func benchSchedule(b *testing.B, s core.Scheduler) {
	b.Helper()
	vcpus, pcpus := benchViews()
	var acts core.Actions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acts.Reset()
		s.Schedule(int64(i), vcpus, pcpus, &acts)
	}
}

func BenchmarkRoundRobinSchedule(b *testing.B) { benchSchedule(b, NewRoundRobin(30)) }

func BenchmarkStrictCoSchedule(b *testing.B) { benchSchedule(b, NewStrictCo(30)) }

func BenchmarkRelaxedCoSchedule(b *testing.B) {
	benchSchedule(b, NewRelaxedCo(RelaxedCoParams{Timeslice: 30}))
}

func BenchmarkBalanceSchedule(b *testing.B) { benchSchedule(b, NewBalance(30)) }

func BenchmarkCreditSchedule(b *testing.B) {
	benchSchedule(b, NewCredit(CreditParams{Timeslice: 30}))
}

// TestScheduleAllocFree pins that a scheduling step allocates nothing once
// the first call has built the gang table and sized the buffers. The
// harness drives each scheduler through contended states (expiries,
// co-stops, gang co-starts); at intervals the current state is scheduled
// repeatedly, reusing one Actions as both engines do.
func TestScheduleAllocFree(t *testing.T) {
	cases := map[string]func() core.Scheduler{
		"RRS":    func() core.Scheduler { return NewRoundRobin(7) },
		"SCS":    func() core.Scheduler { return NewStrictCo(7) },
		"RCS":    func() core.Scheduler { return NewRelaxedCo(RelaxedCoParams{Timeslice: 7, EnterSkew: 2, ExitSkew: 1}) },
		"Credit": func() core.Scheduler { return NewCredit(CreditParams{Timeslice: 7, Period: 5}) },
		"Hybrid": func() core.Scheduler { return NewHybrid(HybridParams{Timeslice: 7, ConcurrentVMs: []int{1}}) },
	}
	for _, name := range []string{"RRS", "SCS", "RCS", "Credit", "Hybrid"} {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, cases[name](), 3, 2, 3, 1, 2)
			// Give the Actions room for any one call's decisions, so only
			// the scheduler's own allocations are counted.
			var acts core.Actions
			for range h.vcpus {
				acts.Assign(0, 0, 1)
				acts.Preempt(0)
			}
			step := func() {
				acts.Reset()
				h.sched.Schedule(h.now, h.vcpus, h.pcpus, &acts)
			}
			for round := 0; round < 40; round++ {
				h.run(13)
				if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
					t.Fatalf("t=%d: Schedule allocated %v times per call", h.now, allocs)
				}
			}
		})
	}
}
