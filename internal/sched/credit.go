package sched

import (
	"slices"

	"vcpusim/internal/core"
)

// Credit is a proportional-share scheduler in the spirit of Xen's credit
// scheduler (Cherkasova et al., the comparison study the paper's related
// work cites): each VM has a weight; credits are replenished to VCPUs in
// proportion to their VM's weight every accounting period and burned while
// running; idle PCPUs go to the waiting VCPU with the most credit.
//
// It is an extension beyond the paper's three evaluated algorithms.
type Credit struct {
	timeslice int64
	period    int64
	weights   map[int]float64 // VM index -> weight (default 1)

	credits  []float64
	lastFill int64
	gangs    gangs
	waiting  []int // per-tick scratch: waiting VCPU IDs
}

var _ core.Scheduler = (*Credit)(nil)

// CreditParams configures the Credit scheduler.
type CreditParams struct {
	// Timeslice is the per-assignment timeslice in ticks.
	Timeslice int64
	// Period is the accounting period between credit refills; zero
	// selects 3x the timeslice.
	Period int64
	// Weights maps VM index to its share weight; missing VMs get 1.
	Weights map[int]float64
}

// NewCredit returns a proportional-share scheduler.
func NewCredit(p CreditParams) *Credit {
	if p.Period <= 0 {
		p.Period = 3 * p.Timeslice
	}
	return &Credit{timeslice: p.Timeslice, period: p.Period, weights: p.Weights}
}

// Name implements core.Scheduler.
func (c *Credit) Name() string { return "Credit" }

// Schedule implements core.Scheduler.
func (c *Credit) Schedule(now int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	if c.credits == nil {
		c.credits = make([]float64, len(vcpus))
		c.lastFill = now
	}
	// Burn one credit per running tick.
	for _, v := range vcpus {
		if v.Status.Active() {
			c.credits[v.ID]--
		}
	}
	// Refill once per period, in proportion to VM weight split across the
	// VM's VCPUs; cap accumulation at one period's worth to bound bursts.
	if now-c.lastFill >= c.period {
		c.lastFill = now
		g := &c.gangs
		g.sync(vcpus)
		totalWeight := 0.0
		for _, vm := range g.vms {
			totalWeight += c.weight(vm)
		}
		if totalWeight > 0 {
			capacity := float64(c.period) * float64(len(pcpus))
			for i, gang := range g.members {
				share := capacity * c.weight(g.vms[i]) / totalWeight / float64(len(gang))
				for _, id := range gang {
					c.credits[id] += share
					if c.credits[id] > capacity {
						c.credits[id] = capacity
					}
				}
			}
		}
	}
	// Grant idle PCPUs to the richest waiting VCPUs.
	waiting := c.waiting[:0]
	for _, v := range vcpus {
		if v.Status == core.Inactive {
			waiting = append(waiting, v.ID)
		}
	}
	c.waiting = waiting
	slices.SortFunc(waiting, c.richerFirst)
	i := 0
	for _, p := range pcpus {
		if i >= len(waiting) {
			break
		}
		if p.Idle() {
			acts.Assign(waiting[i], p.ID, c.timeslice)
			i++
		}
	}
}

// richerFirst orders VCPU IDs by descending credit, then ascending ID.
func (c *Credit) richerFirst(a, b int) int {
	switch {
	case c.credits[a] > c.credits[b]:
		return -1
	case c.credits[a] < c.credits[b]:
		return 1
	}
	return a - b
}

func (c *Credit) weight(vm int) float64 {
	if w, ok := c.weights[vm]; ok && w > 0 {
		return w
	}
	return 1
}

// Credits returns the current credit balance of a VCPU (for tests).
func (c *Credit) Credits(id int) float64 {
	if c.credits == nil || id < 0 || id >= len(c.credits) {
		return 0
	}
	return c.credits[id]
}
