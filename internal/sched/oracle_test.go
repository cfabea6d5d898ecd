package sched

import (
	"fmt"
	"sort"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/rng"
)

// This file is a differential oracle for the schedulers: test-only copies
// of the original map-based RRS, SCS, RCS, Credit and Hybrid (which
// re-derived the VM topology with core.SiblingsOf/core.VMs on every call)
// are driven side by side with the package's schedulers through the same
// randomized tick sequences, and every tick's decisions must agree.

// oracleRoundRobin is the original RRS.
type oracleRoundRobin struct {
	timeslice int64
	cursor    int
}

func (r *oracleRoundRobin) Name() string { return "RRS" }

func (r *oracleRoundRobin) Schedule(_ int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	if len(vcpus) == 0 {
		return
	}
	r.cursor %= len(vcpus)
	idle := core.IdlePCPUs(pcpus)
	scanned := 0
	for _, p := range idle {
		assigned := false
		for ; scanned < len(vcpus); scanned++ {
			id := (r.cursor + scanned) % len(vcpus)
			if vcpus[id].Status == core.Inactive {
				acts.Assign(id, p, r.timeslice)
				scanned++
				assigned = true
				break
			}
		}
		if !assigned {
			break
		}
	}
	r.cursor = (r.cursor + scanned) % len(vcpus)
}

// oracleQueue is the original map-backed vcpuQueue.
type oracleQueue struct {
	order  []int
	member map[int]bool
}

func (q *oracleQueue) admitInactive(vcpus []core.VCPUView) {
	var fresh []core.VCPUView
	for _, v := range vcpus {
		if v.Status == core.Inactive && !q.member[v.ID] {
			fresh = append(fresh, v)
		}
	}
	sort.Slice(fresh, func(i, j int) bool {
		if fresh[i].Runtime != fresh[j].Runtime {
			return fresh[i].Runtime < fresh[j].Runtime
		}
		return fresh[i].ID < fresh[j].ID
	})
	for _, v := range fresh {
		q.push(v.ID)
	}
}

func (q *oracleQueue) push(id int) {
	if q.member[id] {
		return
	}
	q.order = append(q.order, id)
	q.member[id] = true
}

func (q *oracleQueue) remove(id int) {
	if !q.member[id] {
		return
	}
	for i, v := range q.order {
		if v == id {
			q.order = append(q.order[:i], q.order[i+1:]...)
			break
		}
	}
	delete(q.member, id)
}

func (q *oracleQueue) snapshot() []int { return append([]int(nil), q.order...) }

// oracleStrictCo is the original SCS.
type oracleStrictCo struct {
	timeslice int64
	next      int
}

func (s *oracleStrictCo) Name() string { return "SCS" }

func (s *oracleStrictCo) Schedule(_ int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	idle := core.IdlePCPUs(pcpus)
	if len(idle) == 0 {
		return
	}
	byVM := core.SiblingsOf(vcpus)
	vms := core.VMs(vcpus)
	if len(vms) == 0 {
		return
	}
	s.next %= len(vms)

	scheduledFirst := -1
	for i := 0; i < len(vms) && len(idle) > 0; i++ {
		pos := (s.next + i) % len(vms)
		gang := byVM[vms[pos]]
		if len(gang) > len(idle) || !oracleAllInactive(gang, vcpus) {
			continue
		}
		for j, id := range gang {
			acts.Assign(id, idle[j], s.timeslice)
		}
		idle = idle[len(gang):]
		if scheduledFirst < 0 {
			scheduledFirst = pos
		}
	}
	if scheduledFirst >= 0 {
		s.next = (scheduledFirst + 1) % len(vms)
	}
}

func oracleAllInactive(ids []int, vcpus []core.VCPUView) bool {
	for _, id := range ids {
		if vcpus[id].Status != core.Inactive {
			return false
		}
	}
	return true
}

// oracleRelaxedCo is the original RCS.
type oracleRelaxedCo struct {
	timeslice int64
	enterSkew int64
	exitSkew  int64

	queue  *oracleQueue
	skew   []int64
	coMode []bool
}

func newOracleRelaxedCo(p RelaxedCoParams) *oracleRelaxedCo {
	if p.EnterSkew <= 0 {
		p.EnterSkew = p.Timeslice / 3
		if p.EnterSkew < 1 {
			p.EnterSkew = 1
		}
	}
	if p.ExitSkew <= 0 {
		p.ExitSkew = p.EnterSkew / 2
	}
	return &oracleRelaxedCo{
		timeslice: p.Timeslice,
		enterSkew: p.EnterSkew,
		exitSkew:  p.ExitSkew,
		queue:     &oracleQueue{member: make(map[int]bool)},
	}
}

func (r *oracleRelaxedCo) Name() string { return "RCS" }

func (r *oracleRelaxedCo) Schedule(_ int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	byVM := core.SiblingsOf(vcpus)
	vms := core.VMs(vcpus)
	if r.skew == nil {
		r.skew = make([]int64, len(vcpus))
		r.coMode = make([]bool, len(vms))
	}

	// Skews: +1 descheduled while a sibling runs, -1 (floored) otherwise.
	for _, vm := range vms {
		gang := byVM[vm]
		anyActive := false
		for _, id := range gang {
			if vcpus[id].Status.Active() {
				anyActive = true
				break
			}
		}
		for _, id := range gang {
			if !vcpus[id].Status.Active() && anyActive {
				r.skew[id]++
			} else if r.skew[id] > 0 {
				r.skew[id]--
			}
		}
	}
	// Co-mode hysteresis.
	for vi, vm := range vms {
		var max int64
		for _, id := range byVM[vm] {
			if r.skew[id] > max {
				max = r.skew[id]
			}
		}
		if max > r.enterSkew {
			r.coMode[vi] = true
		} else if max < r.exitSkew {
			r.coMode[vi] = false
		}
	}

	vmIndex := make(map[int]int, len(vms))
	for i, vm := range vms {
		vmIndex[vm] = i
	}
	inactive := make([]bool, len(vcpus))
	for _, v := range vcpus {
		inactive[v.ID] = v.Status == core.Inactive
	}
	idle := core.IdlePCPUs(pcpus)

	for vi, vm := range vms {
		if !r.coMode[vi] {
			continue
		}
		for _, id := range byVM[vm] {
			if !inactive[id] {
				acts.Preempt(id)
				inactive[id] = true
				idle = append(idle, vcpus[id].PCPU)
				r.queue.push(id)
			}
		}
	}

	r.queue.admitInactive(vcpus)

	for len(idle) > 0 {
		id, coStart, ok := r.nextEligible(vcpus, byVM, vmIndex, inactive, len(idle))
		if !ok {
			break
		}
		if coStart {
			for _, g := range byVM[vcpus[id].VM] {
				acts.Assign(g, idle[0], r.timeslice)
				idle = idle[1:]
				inactive[g] = false
				r.queue.remove(g)
			}
			continue
		}
		acts.Assign(id, idle[0], r.timeslice)
		idle = idle[1:]
		inactive[id] = false
		r.queue.remove(id)
	}
}

func (r *oracleRelaxedCo) nextEligible(vcpus []core.VCPUView, byVM map[int][]int, vmIndex map[int]int, inactive []bool, idle int) (id int, coStart, ok bool) {
	for _, cand := range r.queue.snapshot() {
		if !inactive[cand] {
			r.queue.remove(cand)
			continue
		}
		vm := vcpus[cand].VM
		gang := byVM[vm]
		if len(gang) <= idle && oracleGangInactive(gang, inactive) {
			return cand, true, true
		}
		if !r.coMode[vmIndex[vm]] {
			return cand, false, true
		}
	}
	return 0, false, false
}

func oracleGangInactive(gang []int, inactive []bool) bool {
	for _, id := range gang {
		if !inactive[id] {
			return false
		}
	}
	return true
}

// oracleCredit is the original Credit scheduler.
type oracleCredit struct {
	timeslice int64
	period    int64
	weights   map[int]float64

	credits  []float64
	lastFill int64
}

func (c *oracleCredit) Name() string { return "Credit" }

func (c *oracleCredit) Schedule(now int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	if c.credits == nil {
		c.credits = make([]float64, len(vcpus))
		c.lastFill = now
	}
	for _, v := range vcpus {
		if v.Status.Active() {
			c.credits[v.ID]--
		}
	}
	if now-c.lastFill >= c.period {
		c.lastFill = now
		byVM := core.SiblingsOf(vcpus)
		vms := core.VMs(vcpus)
		totalWeight := 0.0
		for _, vm := range vms {
			totalWeight += c.weight(vm)
		}
		if totalWeight > 0 {
			capacity := float64(c.period) * float64(len(pcpus))
			for _, vm := range vms {
				gang := byVM[vm]
				share := capacity * c.weight(vm) / totalWeight / float64(len(gang))
				for _, id := range gang {
					c.credits[id] += share
					if c.credits[id] > capacity {
						c.credits[id] = capacity
					}
				}
			}
		}
	}
	var waiting []int
	for _, v := range vcpus {
		if v.Status == core.Inactive {
			waiting = append(waiting, v.ID)
		}
	}
	sort.Slice(waiting, func(i, j int) bool {
		if c.credits[waiting[i]] != c.credits[waiting[j]] {
			return c.credits[waiting[i]] > c.credits[waiting[j]]
		}
		return waiting[i] < waiting[j]
	})
	idle := core.IdlePCPUs(pcpus)
	for i, p := range idle {
		if i >= len(waiting) {
			break
		}
		acts.Assign(waiting[i], p, c.timeslice)
	}
}

func (c *oracleCredit) weight(vm int) float64 {
	if w, ok := c.weights[vm]; ok && w > 0 {
		return w
	}
	return 1
}

// oracleHybrid is the original Hybrid scheduler.
type oracleHybrid struct {
	timeslice  int64
	concurrent map[int]bool
	next       int
}

func (h *oracleHybrid) Name() string { return "Hybrid" }

func (h *oracleHybrid) Schedule(_ int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	byVM := core.SiblingsOf(vcpus)
	vms := core.VMs(vcpus)
	var entities [][]int
	for _, vm := range vms {
		if h.concurrent[vm] {
			entities = append(entities, byVM[vm])
			continue
		}
		for _, id := range byVM[vm] {
			entities = append(entities, []int{id})
		}
	}
	if len(entities) == 0 {
		return
	}
	h.next %= len(entities)

	idle := core.IdlePCPUs(pcpus)
	scheduledFirst := -1
	for i := 0; i < len(entities) && len(idle) > 0; i++ {
		pos := (h.next + i) % len(entities)
		e := entities[pos]
		if len(e) > len(idle) || !oracleAllInactive(e, vcpus) {
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

// oracleCase is one randomized tick sequence.
type oracleCase struct {
	pcpus     int
	sizes     []int // VCPUs per VM
	relayout  []int // when non-nil, the VM sizes the layout switches to mid-run
	vmIDs     []int // VM index of each layout position (may be sparse)
	timeslice int64
	enter     int64 // RCS EnterSkew
	exit      int64 // RCS ExitSkew
	period    int64 // Credit period
	weights   map[int]float64
	conc      []int // Hybrid concurrent VMs
	ticks     int
	seed      uint64
}

func (c oracleCase) String() string {
	return fmt.Sprintf("pcpus=%d sizes=%v relayout=%v vms=%v ts=%d skew=%d/%d seed=%d",
		c.pcpus, c.sizes, c.relayout, c.vmIDs, c.timeslice, c.enter, c.exit, c.seed)
}

// randomOracleCase draws VM shapes of 1-8 VCPUs on 1-8 PCPUs, small skew
// thresholds (so RCS enters co-mode under contention) and short timeslices.
func randomOracleCase(src *rng.Source, seed uint64) oracleCase {
	c := oracleCase{
		pcpus:     1 + src.Intn(8),
		timeslice: int64(1 + src.Intn(40)),
		enter:     int64(1 + src.Intn(6)),
		period:    int64(1 + src.Intn(60)),
		weights:   map[int]float64{},
		ticks:     400,
		seed:      seed,
	}
	c.exit = int64(src.Intn(int(c.enter) + 1))
	nvm := 1 + src.Intn(4)
	for i := 0; i < nvm; i++ {
		c.sizes = append(c.sizes, 1+src.Intn(8))
	}
	// VM indices ascending but possibly sparse, as on a cluster host.
	vm := 0
	for range c.sizes {
		vm += src.Intn(3)
		c.vmIDs = append(c.vmIDs, vm)
		if src.Intn(2) == 0 {
			c.weights[vm] = float64(1 + src.Intn(4))
		}
		if src.Intn(2) == 0 {
			c.conc = append(c.conc, vm)
		}
		vm++
	}
	if src.Intn(4) == 0 && len(c.sizes) > 1 {
		// Rotate the shapes: same VCPU and VM counts, different gangs.
		c.relayout = append(append([]int(nil), c.sizes[1:]...), c.sizes[0])
	}
	return c
}

// oracleDriver evolves one system state, harness-style, and feeds the same
// views to an original scheduler and its replacement on every tick.
type oracleDriver struct {
	*harness
	src    *rng.Source
	parked map[int]bool // VM index -> not admitted
	down   []bool       // per PCPU
}

// layout rewrites every VCPU's (VM, Sibling) for the given VM sizes,
// keeping IDs and run state.
func (d *oracleDriver) layout(sizes, vmIDs []int) {
	id := 0
	for i, size := range sizes {
		for k := 0; k < size; k++ {
			d.vcpus[id].VM = vmIDs[i]
			d.vcpus[id].Sibling = k
			id++
		}
	}
}

// perturb applies the tick's random events: early timeslice expiries,
// PCPU crashes and restarts, VM parking and unparking.
func (d *oracleDriver) perturb(vmIDs []int) {
	for id := range d.vcpus {
		if d.vcpus[id].PCPU >= 0 && d.src.Intn(12) == 0 {
			d.deschedule(id)
		}
	}
	if d.src.Intn(10) == 0 {
		p := d.src.Intn(len(d.pcpus))
		d.down[p] = !d.down[p]
		if d.down[p] && d.pcpus[p].VCPU >= 0 {
			d.deschedule(d.pcpus[p].VCPU)
		}
	}
	if d.src.Intn(15) == 0 {
		vm := vmIDs[d.src.Intn(len(vmIDs))]
		d.parked[vm] = !d.parked[vm]
		if d.parked[vm] && d.src.Intn(2) == 0 {
			for id := range d.vcpus {
				if d.vcpus[id].VM == vm && d.vcpus[id].PCPU >= 0 {
					d.deschedule(id)
				}
			}
		}
	}
}

// views builds the scheduler's view of the state: parked VMs' VCPUs read
// Parked, running VCPUs are randomly Ready or Busy.
func (d *oracleDriver) views() ([]core.VCPUView, []core.PCPUView) {
	vs := append([]core.VCPUView(nil), d.vcpus...)
	for i := range vs {
		switch {
		case d.parked[vs[i].VM]:
			vs[i].Status = core.Parked
		case vs[i].PCPU >= 0 && d.src.Intn(2) == 0:
			vs[i].Status = core.Busy
		}
	}
	ps := append([]core.PCPUView(nil), d.pcpus...)
	for i := range ps {
		ps[i].Down = d.down[i]
	}
	return vs, ps
}

// apply carries out the decisions the way the engines do: invalid ones
// (such as RCS preempting a parked VCPU that holds no PCPU) are skipped.
func (d *oracleDriver) apply(acts *core.Actions) {
	for _, id := range acts.Preempts() {
		if id >= 0 && id < len(d.vcpus) && d.vcpus[id].PCPU >= 0 {
			d.deschedule(id)
		}
	}
	for _, a := range acts.Assigns() {
		if a.VCPU < 0 || a.VCPU >= len(d.vcpus) || a.PCPU < 0 || a.PCPU >= len(d.pcpus) ||
			d.down[a.PCPU] || d.vcpus[a.VCPU].PCPU >= 0 || d.pcpus[a.PCPU].VCPU >= 0 {
			continue
		}
		v := &d.vcpus[a.VCPU]
		v.PCPU = a.PCPU
		v.Timeslice = a.Timeslice
		v.LastScheduledIn = d.now
		v.Status = core.Ready
		d.pcpus[a.PCPU].VCPU = a.VCPU
	}
}

func sameActions(a, b *core.Actions) bool {
	pa, pb := a.Preempts(), b.Preempts()
	aa, ab := a.Assigns(), b.Assigns()
	if len(pa) != len(pb) || len(aa) != len(ab) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	for i := range aa {
		if aa[i] != ab[i] {
			return false
		}
	}
	return true
}

// oraclePair is an original scheduler and its replacement; state, when
// set, compares the two's per-VCPU bookkeeping after every tick.
type oraclePair struct {
	name     string
	old, new core.Scheduler
	state    func(id int) (old, new float64)
}

func oraclePairs(c oracleCase) []oraclePair {
	rcs := RelaxedCoParams{Timeslice: c.timeslice, EnterSkew: c.enter, ExitSkew: c.exit}
	oldRCS, newRCS := newOracleRelaxedCo(rcs), NewRelaxedCo(rcs)
	oldCredit := &oracleCredit{timeslice: c.timeslice, period: c.period, weights: c.weights}
	newCredit := NewCredit(CreditParams{Timeslice: c.timeslice, Period: c.period, Weights: c.weights})
	conc := map[int]bool{}
	for _, vm := range c.conc {
		conc[vm] = true
	}
	return []oraclePair{
		{name: "RRS", old: &oracleRoundRobin{timeslice: c.timeslice}, new: NewRoundRobin(c.timeslice)},
		{name: "SCS", old: &oracleStrictCo{timeslice: c.timeslice}, new: NewStrictCo(c.timeslice)},
		{name: "RCS", old: oldRCS, new: newRCS, state: func(id int) (float64, float64) {
			var o int64
			if id < len(oldRCS.skew) {
				o = oldRCS.skew[id]
			}
			return float64(o), float64(newRCS.Skew(id))
		}},
		{name: "Credit", old: oldCredit, new: newCredit, state: func(id int) (float64, float64) {
			var o float64
			if id < len(oldCredit.credits) {
				o = oldCredit.credits[id]
			}
			return o, newCredit.Credits(id)
		}},
		{name: "Hybrid", old: &oracleHybrid{timeslice: c.timeslice, concurrent: conc},
			new: NewHybrid(HybridParams{Timeslice: c.timeslice, ConcurrentVMs: c.conc})},
	}
}

// runOracle drives one pair through the case's tick sequence and returns
// the number of preemptions issued (co-stops, for RCS).
func runOracle(t *testing.T, c oracleCase, p oraclePair) int {
	t.Helper()
	d := &oracleDriver{
		harness: newHarness(t, nil, c.pcpus, c.sizes...),
		src:     rng.New(c.seed),
		parked:  map[int]bool{},
		down:    make([]bool, c.pcpus),
	}
	d.layout(c.sizes, c.vmIDs)
	preempts := 0
	for ; d.now < int64(c.ticks); d.now++ {
		if c.relayout != nil && d.now == int64(c.ticks/2) {
			d.layout(c.relayout, c.vmIDs)
		}
		if d.now > 0 {
			for id := range d.vcpus {
				v := &d.vcpus[id]
				if v.PCPU < 0 {
					continue
				}
				v.Runtime++
				v.Timeslice--
				if v.Timeslice <= 0 {
					d.deschedule(id)
				}
			}
			d.perturb(c.vmIDs)
		}
		vs, ps := d.views()
		var oldActs, newActs core.Actions
		p.old.Schedule(d.now, append([]core.VCPUView(nil), vs...), append([]core.PCPUView(nil), ps...), &oldActs)
		p.new.Schedule(d.now, vs, ps, &newActs)
		if !sameActions(&oldActs, &newActs) {
			t.Fatalf("%s %v t=%d: decisions differ\n original: assigns %v preempts %v\n     new:  assigns %v preempts %v",
				p.name, c, d.now, oldActs.Assigns(), oldActs.Preempts(), newActs.Assigns(), newActs.Preempts())
		}
		if p.state != nil {
			for id := range d.vcpus {
				if o, n := p.state(id); o != n {
					t.Fatalf("%s %v t=%d: VCPU %d state %v, original %v", p.name, c, d.now, id, n, o)
				}
			}
		}
		preempts += len(newActs.Preempts())
		d.apply(&newActs)
	}
	return preempts
}

// TestSchedulerOracle checks every scheduler against its original
// implementation on randomized tick sequences: VM shapes of 1-8 VCPUs on
// 1-8 PCPUs, parked VMs, crashed PCPUs, early timeslice expiries, RCS skew
// pushed into co-mode, and sequences whose VM layout changes mid-run.
func TestSchedulerOracle(t *testing.T) {
	src := rng.New(20131)
	var cases []oracleCase
	for i := 0; i < 60; i++ {
		cases = append(cases, randomOracleCase(src, uint64(i+1)))
	}
	// Layout changes between calls: same VCPU and VM counts, different
	// gangs, so the replacement must notice and rebuild its tables.
	cases = append(cases,
		oracleCase{pcpus: 3, sizes: []int{3, 1, 2}, relayout: []int{1, 2, 3}, vmIDs: []int{0, 1, 2},
			timeslice: 7, enter: 2, exit: 1, period: 21, ticks: 600, seed: 101, conc: []int{0, 2}},
		oracleCase{pcpus: 2, sizes: []int{2, 2, 1, 1}, relayout: []int{1, 1, 2, 2}, vmIDs: []int{0, 3, 4, 7},
			timeslice: 5, enter: 1, exit: 0, period: 9, ticks: 600, seed: 102, conc: []int{3}},
	)
	preempts := map[string]int{}
	for _, c := range cases {
		for _, p := range oraclePairs(c) {
			preempts[p.name] += runOracle(t, c, p)
		}
	}
	if preempts["RCS"] == 0 {
		t.Fatal("no RCS co-stop in any sequence: co-mode was never exercised")
	}
}
