package cluster

import (
	"context"
	"fmt"
	"testing"

	"vcpusim/internal/config"
	"vcpusim/internal/rng"
)

// This file is a differential oracle for the migration scan: a test-only
// copy of the original second phase of migrationCheck and its pickTarget
// (one full host scan, recomputing every host's utilization, per
// overloaded host) runs over a snapshot of each check's fleet, and the
// drains it starts — source, slot, target, target slot, in order — must
// be the ones the orchestrator starts.

// oracleHost is one host as the original scan saw it: its observed PCPU
// assignment fraction and a copy of its slot bookkeeping.
type oracleHost struct {
	util  float64
	slots []slotState
}

// fits is the original hostShard.fits: narrowest free slot, lowest index
// on ties.
func (h *oracleHost) fits(vcpus int) int {
	best := -1
	for i := range h.slots {
		s := &h.slots[i]
		if s.phase != slotParked || s.vcpus < vcpus {
			continue
		}
		if best < 0 || s.vcpus < h.slots[best].vcpus {
			best = i
		}
	}
	return best
}

// oracleDrain is one migration initiation.
type oracleDrain struct{ src, slot, tgt, tgtSlot int }

// oraclePickTarget is the original pickTarget: among hosts below the low
// threshold that fit the width, the lowest utilization, lowest ID on ties.
func oraclePickTarget(fleet []oracleHost, src, vcpus int, m *Migration) (int, int) {
	best, bestSlot, bestUtil := -1, -1, 0.0
	for id := range fleet {
		h := &fleet[id]
		if id == src {
			continue
		}
		if h.util >= m.LowUtil {
			continue
		}
		slot := h.fits(vcpus)
		if slot < 0 {
			continue
		}
		if best < 0 || h.util < bestUtil {
			best, bestSlot, bestUtil = id, slot, h.util
		}
	}
	return best, bestSlot
}

// oraclePhase2 is the original drain-initiation loop: hosts in ID order,
// one drain per overloaded host, each target slot reserved before the
// next host is scanned. It updates fleet as the orchestrator updates its
// slots and returns the drains in order.
func oraclePhase2(fleet []oracleHost, m *Migration) []oracleDrain {
	var out []oracleDrain
	for id := range fleet {
		src := &fleet[id]
		if src.util <= m.HighUtil {
			continue
		}
		slot := -1
		for i := range src.slots {
			if src.slots[i].phase == slotAdmitted {
				slot = i
				break
			}
		}
		if slot < 0 {
			continue
		}
		tgt, tgtSlot := oraclePickTarget(fleet, id, src.slots[slot].vcpus, m)
		if tgt < 0 {
			continue
		}
		src.slots[slot].phase = slotDraining
		src.slots[slot].tgtHost = tgt
		src.slots[slot].tgtSlot = tgtSlot
		fleet[tgt].slots[tgtSlot].phase = slotReserved
		out = append(out, oracleDrain{id, slot, tgt, tgtSlot})
	}
	return out
}

// randomMigrationFleet draws a small fleet: one to four RRS/SCS host
// groups of 1–4 PCPUs with VM slots 1–4 VCPUs wide, some admitted, and
// migration thresholds that range from no candidate at all (lowUtil 0)
// to nearly every host, with thresholds on utilization values that
// several hosts share.
func randomMigrationFleet(src *rng.Source) *Topology {
	load := config.Distribution{Dist: "uniform", Low: 1, High: 8}
	thresholds := []float64{0, 0.25, 1.0 / 3, 0.5, 0.6, 2.0 / 3, 0.75, 0.8, 0.9, 1}
	topo := &Topology{Horizon: 1e6, Placement: "first-fit"}
	for g, groups := 0, 1+src.Intn(4); g < groups; g++ {
		hg := HostGroup{
			Name:      fmt.Sprintf("g%d", g),
			Count:     1 + src.Intn(8),
			PCPUs:     1 + src.Intn(4),
			Scheduler: config.Scheduler{Name: []string{"RRS", "SCS"}[src.Intn(2)]},
		}
		total := 0
		for s, slots := 0, 1+src.Intn(4); s < slots; s++ {
			w := 1 + src.Intn(4)
			n := 1 + src.Intn(2)
			if total+w*n > 12 {
				break
			}
			total += w * n
			hg.Slots = append(hg.Slots, Slot{
				VM:       config.VM{VCPUs: w, Load: load, SyncEveryN: 1 + src.Intn(5)},
				Count:    n,
				Admitted: src.Intn(3) > 0,
			})
		}
		if len(hg.Slots) == 0 {
			hg.Slots = []Slot{{VM: config.VM{VCPUs: 1, Load: load}, Admitted: true}}
		}
		topo.Hosts = append(topo.Hosts, hg)
	}
	hi := 1 + src.Intn(len(thresholds)-1)
	lo := src.Intn(hi)
	topo.Migration = &Migration{
		CheckEvery:    1,
		HighUtil:      thresholds[hi] - 0.01*float64(src.Intn(2)),
		LowUtil:       thresholds[lo],
		TransferDelay: 1,
	}
	topo.applyDefaults()
	return topo
}

// TestMigrationScanOracle drives randomized fleets through a series of
// migration checks. Before each check it reserves a random share of the
// parked slots (sometimes every parked slot of a host), so targets run
// out of capacity mid-scan; after the check it replays the original scan
// on a snapshot of the fleet as the drain phase saw it (after the drained
// VMs were evicted) and compares the drains and every slot's phase.
func TestMigrationScanOracle(t *testing.T) {
	src := rng.New(2013)
	var drains, checks, ties, fullyReserved, noCandidate int
	ctx := context.Background()
	for fleetN := 0; fleetN < 60; fleetN++ {
		topo := randomMigrationFleet(src)
		if err := topo.Validate(); err != nil {
			t.Fatalf("fleet %d: invalid topology: %v", fleetN, err)
		}
		o, err := New(topo)
		if err != nil {
			t.Fatalf("fleet %d: %v", fleetN, err)
		}
		if err := o.arm(uint64(fleetN) + 1); err != nil {
			t.Fatalf("fleet %d: %v", fleetN, err)
		}
		m := topo.Migration
		reserveP := src.Float64()
		now := 0.0
		for k := 0; k < 12; k++ {
			now += float64(1 + src.Intn(40))
			if err := o.advanceHosts(ctx, now); err != nil {
				t.Fatalf("fleet %d check %d: %v", fleetN, k, err)
			}
			for _, h := range o.hosts {
				all := src.Intn(8) == 0
				for i := range h.slots {
					if h.slots[i].phase == slotParked && (all || src.Float64() < reserveP/4) {
						h.slots[i].phase = slotReserved
					}
				}
			}
			before := make([][]slotState, len(o.hosts))
			for id, h := range o.hosts {
				before[id] = append([]slotState(nil), h.slots...)
			}
			if err := o.migrationCheck(now); err != nil {
				t.Fatalf("fleet %d check %d: %v", fleetN, k, err)
			}

			// The drain phase's view: drained VMs evicted (a draining slot
			// stops draining only then, and may be reserved again since),
			// utilizations as they stand now (starting drains does not move
			// them).
			fleet := make([]oracleHost, len(o.hosts))
			var got []oracleDrain
			for id, h := range o.hosts {
				fleet[id] = oracleHost{
					util:  hostUtil(t, o, h),
					slots: before[id],
				}
				for i := range h.slots {
					b, a := &before[id][i], &h.slots[i]
					if b.phase == slotDraining && a.phase != slotDraining {
						b.phase = slotParked
					}
					if b.phase == slotAdmitted && a.phase == slotDraining {
						got = append(got, oracleDrain{id, i, a.tgtHost, a.tgtSlot})
					}
				}
			}
			candidates, full := map[float64]int{}, 0
			for id := range fleet {
				h := &fleet[id]
				if h.util < m.LowUtil {
					candidates[h.util]++
				}
				if h.fits(1) < 0 {
					full++
				}
			}
			want := oraclePhase2(fleet, m)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("fleet %d check %d (high %g, low %g): drains %v, original scan %v",
					fleetN, k, m.HighUtil, m.LowUtil, got, want)
			}
			for id, h := range o.hosts {
				for i := range h.slots {
					if h.slots[i].phase != fleet[id].slots[i].phase {
						t.Fatalf("fleet %d check %d: host %d slot %d phase %d, original scan %d",
							fleetN, k, id, i, h.slots[i].phase, fleet[id].slots[i].phase)
					}
				}
			}
			checks++
			drains += len(want)
			fullyReserved += full
			if len(candidates) == 0 {
				noCandidate++
			}
			for _, n := range candidates {
				if n > 1 {
					ties++
					break
				}
			}
		}
	}
	t.Logf("%d checks, %d drains, %d with tied candidates, %d without candidates, %d full host snapshots",
		checks, drains, ties, noCandidate, fullyReserved)
	if drains == 0 || ties == 0 || noCandidate == 0 || fullyReserved == 0 {
		t.Fatalf("oracle coverage too thin: %d drains, %d ties, %d checks without candidates, %d full hosts",
			drains, ties, noCandidate, fullyReserved)
	}
}
