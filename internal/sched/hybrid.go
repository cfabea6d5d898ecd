package sched

import (
	"fmt"
	"sort"
	"strings"

	"vcpusim/internal/core"
)

// Hybrid implements the hybrid scheduling framework of Weng et al. (VEE
// 2009), which the paper's related-work section discusses: VMs marked
// *concurrent* (parallel workloads that suffer from synchronization
// latency) are gang-scheduled with strict co-start/co-stop, while the
// remaining VMs' VCPUs are scheduled individually, round-robin, filling
// the PCPUs the gangs leave free. This captures the practical middle
// ground between the paper's SCS (all VMs gang-scheduled, heavy
// fragmentation) and RRS (no co-scheduling at all).
type Hybrid struct {
	timeslice  int64
	concurrent map[int]bool
	name       string
	next       int // round-robin pointer over entities
	gangs      gangs
	// entities are the schedulable units in rotation order: a whole gang
	// or a single VCPU, rebuilt whenever the gang table is.
	entities [][]int
}

var _ core.Scheduler = (*Hybrid)(nil)

// HybridParams configures the hybrid scheduler.
type HybridParams struct {
	// Timeslice is the per-assignment timeslice in ticks.
	Timeslice int64
	// ConcurrentVMs lists the VM indices to gang-schedule.
	ConcurrentVMs []int
}

// NewHybrid returns a hybrid scheduler.
func NewHybrid(p HybridParams) *Hybrid {
	conc := make(map[int]bool, len(p.ConcurrentVMs))
	var ids []string
	for _, vm := range p.ConcurrentVMs {
		if !conc[vm] {
			ids = append(ids, fmt.Sprintf("%d", vm))
		}
		conc[vm] = true
	}
	sort.Strings(ids)
	name := "Hybrid"
	if len(ids) > 0 {
		name = "Hybrid(co:" + strings.Join(ids, ",") + ")"
	}
	return &Hybrid{timeslice: p.Timeslice, concurrent: conc, name: name}
}

// Name implements core.Scheduler.
func (h *Hybrid) Name() string { return h.name }

// Schedule implements core.Scheduler.
func (h *Hybrid) Schedule(_ int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	g := &h.gangs
	if g.sync(vcpus) {
		h.entities = h.entities[:0]
		for i, gang := range g.members {
			if h.concurrent[g.vms[i]] {
				h.entities = append(h.entities, gang)
				continue
			}
			for k := range gang {
				h.entities = append(h.entities, gang[k:k+1])
			}
		}
	}
	entities := h.entities
	if len(entities) == 0 {
		return
	}
	h.next %= len(entities)

	idle := g.idlePCPUs(pcpus)
	scheduledFirst := -1
	for i := 0; i < len(entities) && len(idle) > 0; i++ {
		pos := (h.next + i) % len(entities)
		e := entities[pos]
		if len(e) > len(idle) || !allInactive(e, vcpus) {
			continue
		}
		for j, id := range e {
			acts.Assign(id, idle[j], h.timeslice)
		}
		idle = idle[len(e):]
		if scheduledFirst < 0 {
			scheduledFirst = pos
		}
	}
	if scheduledFirst >= 0 {
		h.next = (scheduledFirst + 1) % len(entities)
	}
}
