package sched

import (
	"vcpusim/internal/core"
)

// gangs is a scheduler's cached copy of the VM topology the views
// describe. The topology cannot change within a replication, so the
// table is built from core.SiblingsOf/core.VMs on the first call, and
// every later call only checks, without allocating, that the views'
// (VM, Sibling) columns still match it. Like every scheduler here it
// takes a VCPU's ID to be its index in the views.
type gangs struct {
	vms     []int   // VM indices in ascending order
	members [][]int // members[i]: VCPU IDs of vms[i] in sibling order
	pos     []int   // pos[id]: position in vms of VCPU id's VM
	sibling []int   // sibling[id]: the Sibling the table was built with

	idle []int // reusable idle-PCPU buffer
}

// sync makes the table match the views and reports whether it had to be
// (re)built.
func (g *gangs) sync(vcpus []core.VCPUView) bool {
	if len(vcpus) == len(g.pos) {
		same := true
		for i := range vcpus {
			if vcpus[i].VM != g.vms[g.pos[i]] || vcpus[i].Sibling != g.sibling[i] {
				same = false
				break
			}
		}
		if same {
			return false
		}
	}
	byVM := core.SiblingsOf(vcpus)
	g.vms = core.VMs(vcpus)
	g.members = make([][]int, len(g.vms))
	g.pos = make([]int, len(vcpus))
	g.sibling = make([]int, len(vcpus))
	for i, vm := range g.vms {
		g.members[i] = byVM[vm]
		for _, id := range byVM[vm] {
			g.pos[id] = i
		}
	}
	for i := range vcpus {
		g.sibling[i] = vcpus[i].Sibling
	}
	return true
}

// gangOf returns the sibling-ordered VCPU IDs of VCPU id's VM.
func (g *gangs) gangOf(id int) []int { return g.members[g.pos[id]] }

// idlePCPUs fills the reusable buffer with the idle PCPUs' IDs in
// ascending order (core.IdlePCPUs without the allocation).
func (g *gangs) idlePCPUs(pcpus []core.PCPUView) []int {
	g.idle = g.idle[:0]
	for _, p := range pcpus {
		if p.Idle() {
			g.idle = append(g.idle, p.ID)
		}
	}
	return g.idle
}
