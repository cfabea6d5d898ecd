package cluster

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"vcpusim/internal/core"
	"vcpusim/internal/obs"
	"vcpusim/internal/san"
	"vcpusim/internal/sim"
)

// hostSeedMix spreads one replication seed across hosts (splitmix64's
// golden-ratio increment). Host 0's seed is the replication seed itself,
// so a 1-host cluster replays the single-host executive bit for bit.
const hostSeedMix = 0x9E3779B97F4A7C15

func hostSeed(seed uint64, h int) uint64 { return seed ^ uint64(h)*hostSeedMix }

// slotPhase is the orchestrator-side occupancy of one VM slot.
type slotPhase uint8

const (
	slotParked   slotPhase = iota // free capacity, generator disabled
	slotAdmitted                  // resident VM, running
	slotDraining                  // migrating away: generator off, running dry
	slotReserved                  // target of an in-flight migration
)

// slotState is the orchestrator's bookkeeping for one VM slot of one
// host. vcpus is static; the rest resets every replication.
type slotState struct {
	vcpus      int
	startsUp   bool // admitted at t=0 per the topology
	phase      slotPhase
	drainStart float64
	// tgtHost/tgtSlot name the reserved migration target while draining.
	tgtHost, tgtSlot int
}

// hostShard is one host: its own state (a core.Worker, run on a shape of
// its group while the orchestrator works on it) and the orchestrator's
// slot bookkeeping.
type hostShard struct {
	id    int
	group int
	name  string
	pcpus int
	// assigned is the host's count of PCPUs holding a VCPU, read off the
	// model whenever its marking may have changed: after each pass over
	// the hosts and after an eviction. The migration check reads it
	// instead of binding every host.
	assigned int
	worker   *core.Worker
	inst     *san.Instance // the worker's instance
	slots    []slotState
	// genEnabled mirrors the instance's persisted SetActivityEnabled
	// state per slot, so replication setup only flips transitions — a
	// host whose slots are all admitted from t=0 never touches the
	// disable surface and replays the single-host executive exactly.
	genEnabled []bool
	// spans holds the host's fault spans while a sink is installed: hosts
	// advance concurrently, so they never emit into the sink directly
	// (see merge).
	spans spanBuffer
	// err is the host's first failure in the current pass over the
	// hosts, at virtual time failAt (0 in arm and collect).
	err    error
	failAt float64
}

// spanBuffer is an obs.Sink that keeps every event it receives and the
// host's virtual time when it was emitted.
type spanBuffer struct {
	inst   *san.Instance
	events []obs.Event
	at     []float64
}

func (b *spanBuffer) Emit(ev obs.Event) {
	b.events = append(b.events, ev)
	b.at = append(b.at, b.inst.Now())
}

func (b *spanBuffer) reset() {
	clear(b.events)
	b.events, b.at = b.events[:0], b.at[:0]
}

// fits returns the best free slot for a VM of the given width (narrowest
// sufficient slot, lowest index on ties), or -1.
func (h *hostShard) fits(vcpus int) int {
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

// admittedVCPUs is the width committed to this host: resident VMs plus
// draining ones (still consuming) plus reserved inbound capacity.
func (h *hostShard) admittedVCPUs() int {
	n := 0
	for i := range h.slots {
		if h.slots[i].phase != slotParked {
			n += h.slots[i].vcpus
		}
	}
	return n
}

// Cluster event kinds, in deterministic total order (time, seq) — and
// always ahead of host events at equal times (a cluster event at t
// observes the state before any host processes its own event at t).
const (
	evArrival = iota
	evCheck
	evAdmit
)

type clusterEvent struct {
	time float64
	seq  int
	kind int
	// evArrival
	count, vcpus int
	// evAdmit
	host, slot int
	srcHost    int
	drainStart float64
}

// eventHeap is a min-heap over (time, seq).
type eventHeap []clusterEvent

func (h *eventHeap) push(ev clusterEvent) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *eventHeap) pop() clusterEvent {
	top := (*h)[0]
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top
}

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

// queuedVM is a VM awaiting placement (no host fits it yet).
type queuedVM struct {
	vcpus   int
	arrived float64
}

// Orchestrator runs a topology's hosts under one global clock, advancing
// all hosts in windows between cluster events (see Replicate). It is the
// cluster counterpart of core.Worker: built once per worker slot, then
// driven for any number of replications, each a pure function of its
// seed. Not goroutine-safe — sim.RunPooled gives each worker goroutine
// its own Orchestrator.
type Orchestrator struct {
	topo   *Topology
	policy PlacementPolicy
	hosts  []*hostShard

	// cfgs holds each host group's system configuration, and shapes[w][g]
	// host pool worker w's shape of group g: the group's model built and
	// compiled once for that worker, built on the worker's first host of
	// the group. Every host of a group runs on the shape of whichever
	// worker claims it; the serial cluster-event code uses worker 0's.
	cfgs   []core.SystemConfig
	shapes [][]*core.Shape

	events eventHeap
	seq    int
	queue  []queuedVM
	loads  []HostLoad

	// Migration-check scratch: each host's utilization, the hosts below
	// the low threshold in (utilization, ID) order, and a cursor into
	// them per VM width.
	util   []float64
	cands  []int
	cursor []int

	// The host pool: one private state per worker, the next host ID for a
	// worker to claim, and how many consecutive hosts one claim takes.
	// hooked is set when the replication started with fire hooks on some
	// host.
	workers []hostWorker
	next    atomic.Int64
	claim   int
	hooked  bool

	// Per-replication cluster rewards.
	dispatches, migrations int
	downtime               float64
	placeWaitSum           float64
	placed                 int

	// lastHost holds each host's metric map from the latest replication
	// (the degenerate-case test reads host 0's raw map).
	lastHost []map[string]float64

	sink obs.Sink
}

// Cluster-level metric names. Per-host metrics are hostMetric(h, base)
// = "host<h>/<base>".
const (
	FleetAvailMetric   = "fleet/avail"
	FleetVUtilMetric   = "fleet/vutil"
	FleetPUtilMetric   = "fleet/putil"
	DispatchesMetric   = "cluster/dispatches"
	MigrationsMetric   = "cluster/migrations"
	DowntimeMetric     = "cluster/downtime"
	PlaceWaitMetric    = "cluster/place_wait"
	QueuedAtEndMetric  = "cluster/queued"
	AdmittedVCPUMetric = "cluster/admitted_vcpus"
)

// HostMetric names host h's copy of a fleet metric base, e.g.
// HostMetric(3, "avail") == "host3/avail".
func HostMetric(h int, base string) string { return fmt.Sprintf("host%d/%s", h, base) }

// New builds and compiles each host group's model once, as the shapes of
// host pool worker 0, and gives every host of the group its own state on
// that shape: a SAN instance, scheduler, workload streams and fault
// runtime, but no model of its own. The returned orchestrator runs any
// number of replications via Replicate.
func New(topo *Topology) (*Orchestrator, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	policy, err := policyFor(topo.Placement)
	if err != nil {
		return nil, err
	}
	o := &Orchestrator{topo: topo, policy: policy}
	o.shapes = [][]*core.Shape{make([]*core.Shape, len(topo.Hosts))}
	for g, hg := range topo.Hosts {
		cfg, err := hg.systemConfig(topo.Contract)
		if err != nil {
			return nil, fmt.Errorf("cluster: host group %d: %w", g, err)
		}
		factory, err := hg.schedulerFactory()
		if err != nil {
			return nil, fmt.Errorf("cluster: host group %d: %w", g, err)
		}
		o.cfgs = append(o.cfgs, cfg)
		sh, err := o.shape(0, g)
		if err != nil {
			return nil, err
		}
		var slots []slotState
		vm := 0
		for _, slot := range hg.Slots {
			for c := 0; c < slot.Count; c++ {
				slots = append(slots, slotState{vcpus: sh.System().VMVCPUs(vm), startsUp: slot.Admitted})
				vm++
			}
		}
		for k := 0; k < hg.Count; k++ {
			w, err := sh.NewWorker(factory)
			if err != nil {
				return nil, fmt.Errorf("cluster: host %s-%d: %w", hg.hostPrefix(), k, err)
			}
			// Allocate the host's stored marking now, not in its first
			// replication; Arm replaces what it holds.
			w.Instance().Store()
			h := &hostShard{
				id:     len(o.hosts),
				group:  g,
				name:   fmt.Sprintf("%s-%d", hg.hostPrefix(), k),
				pcpus:  cfg.PCPUs,
				worker: w,
				inst:   w.Instance(),
				slots:  slices.Clone(slots),
			}
			h.spans.inst = h.inst
			h.genEnabled = make([]bool, len(h.slots))
			for i := range h.genEnabled {
				h.genEnabled[i] = true // activities start enabled
			}
			o.hosts = append(o.hosts, h)
		}
	}
	o.loads = make([]HostLoad, len(o.hosts))
	o.util = make([]float64, len(o.hosts))
	widest := 0
	for _, h := range o.hosts {
		for _, s := range h.slots {
			widest = max(widest, s.vcpus)
		}
	}
	o.cursor = make([]int, widest+1)
	o.lastHost = make([]map[string]float64, len(o.hosts))
	return o, nil
}

// SetSink installs a telemetry sink receiving cluster.dispatch and
// cluster.migrate spans (plus each host's fault spans); nil removes it.
// Host fault spans are emitted host-major within a window between
// cluster events, not in global time order; each carries its own
// virtual time. Hosts buffer their spans while they run concurrently,
// and the orchestrator forwards them from its own goroutine, so the sink
// sees one Emit at a time from one replication. A failed replication
// forwards only the spans the serial order reaches before the failure it
// reports; a cancelled one drops the spans of the window it stopped in.
func (o *Orchestrator) SetSink(s obs.Sink) {
	o.sink = s
	for _, h := range o.hosts {
		h.spans.reset()
		if s == nil {
			h.worker.SetFaultSink(nil)
		} else {
			h.worker.SetFaultSink(&h.spans)
		}
	}
}

// shape returns host pool worker w's shape of group g, building and
// compiling it on first use. Only worker w calls it with w.
func (o *Orchestrator) shape(w, g int) (*core.Shape, error) {
	row := o.shapes[w]
	if row[g] == nil {
		sh, err := core.NewShape(o.cfgs[g])
		if err != nil {
			return nil, fmt.Errorf("cluster: host group %d: %w", g, err)
		}
		row[g] = sh
	}
	return row[g], nil
}

// onHost runs fn on host h for the serial cluster-event code: h's state
// is bound into worker 0's shape of its group for the call and stored
// back after it.
func (o *Orchestrator) onHost(h *hostShard, fn func(*core.System) error) error {
	sh := o.shapes[0][h.group]
	if err := h.worker.Bind(sh); err != nil {
		return fmt.Errorf("cluster: host %s: %w", h.name, err)
	}
	defer h.worker.Unbind()
	return fn(sh.System())
}

// NumHosts returns the orchestrator's host count.
func (o *Orchestrator) NumHosts() int { return len(o.hosts) }

// Host returns host h's worker — its own state — for read-only
// instrumentation. Its Instance is host h's alone, so fire hooks on it
// see host h's firings only. Its System is the group shape the host last
// ran on, which between cluster steps holds another host's state or
// none. A replication that starts with fire hooks installed on any host
// runs its hosts on one goroutine, so hooks never run concurrently and
// may share state across hosts.
func (o *Orchestrator) Host(h int) *core.Worker { return o.hosts[h].worker }

// HostMetrics returns host h's raw metric map from the most recent
// replication — exactly what the host's single-host executive would have
// reported for the same trajectory.
func (o *Orchestrator) HostMetrics(h int) map[string]float64 { return o.lastHost[h] }

// LastStats sums the engine counters of the most recent replication
// across all hosts and adds the orchestrator's own dispatch/migration
// counts.
func (o *Orchestrator) LastStats() obs.Counters {
	var c obs.Counters
	for _, h := range o.hosts {
		st := h.worker.LastStats()
		c.Events += st.EventsFired
		c.Firings += st.TimedFirings + st.InstFirings
		c.TimedFirings += st.TimedFirings
		c.InstFirings += st.InstFirings
		c.Aborts += st.Aborts
		c.Scheduled += st.EventsScheduled
		c.Cancelled += st.EventsCancelled
		c.StabilizeIters += st.StabilizeIters
		if st.MaxStabilizeDepth > c.MaxStabilizeDepth {
			c.MaxStabilizeDepth = st.MaxStabilizeDepth
		}
		c.WallNS += int64(st.WallTime)
	}
	c.Dispatches = uint64(o.dispatches)
	c.Migrations = uint64(o.migrations)
	return c
}

// hostWorker is one pool worker's private state during a pass over the
// hosts. Workers share nothing while they run; failures are kept on the
// hosts and merged after the join.
type hostWorker struct {
	id  int // index into the orchestrator's shapes
	ctx context.Context
	end float64 // window end
	// stop is a cancellation; it ends the worker's pass.
	stop   error
	events int
}

// cancelled checks ctx and records a cancellation.
func (w *hostWorker) cancelled() bool {
	if err := w.ctx.Err(); err != nil {
		w.stop = fmt.Errorf("cluster: replication cancelled: %w", err)
		return true
	}
	return false
}

// replicating counts the Replicate calls running in this process.
// sim.RunPooled and the experiment grids already run replications side
// by side, so each replication's host pool takes only its share of
// GOMAXPROCS.
var replicating atomic.Int64

// poolSize is the number of workers for one pass over the hosts: one
// while fire hooks are installed (they are the caller's instruments and
// need not be goroutine-safe), otherwise this replication's share of
// GOMAXPROCS, at most one per host. Results do not depend on it.
func (o *Orchestrator) poolSize() int {
	if o.hooked {
		return 1
	}
	share := runtime.GOMAXPROCS(0) / max(1, int(replicating.Load()))
	return max(1, min(share, len(o.hosts)))
}

// forHosts runs fn on every host on poolSize workers, each claiming the
// next hosts from an atomic counter and binding each host into its own
// shape of the host's group for the call; one worker runs inline.
// Workers check ctx when they start. It returns a cancellation if any
// worker saw one, dropping the pass's spans, and otherwise merges the
// hosts' failures and spans.
func (o *Orchestrator) forHosts(ctx context.Context, end float64, fn func(*hostWorker, *hostShard)) error {
	n := o.poolSize()
	if cap(o.workers) < n {
		o.workers = make([]hostWorker, n)
	}
	ws := o.workers[:n]
	for i := range ws {
		ws[i] = hostWorker{id: i, ctx: ctx, end: end}
	}
	for len(o.shapes) < n {
		o.shapes = append(o.shapes, make([]*core.Shape, len(o.cfgs)))
	}
	// Workers claim runs of neighbouring hosts, about eight runs each, so
	// two workers rarely run neighbours at once: a host's small objects
	// share cache lines with its neighbours', allocated right after them.
	o.claim = max(1, min(64, len(o.hosts)/(8*n)))
	o.next.Store(0)
	if n == 1 {
		o.work(&ws[0], fn)
	} else {
		var wg sync.WaitGroup
		wg.Add(n)
		for i := range ws {
			go func(w *hostWorker) {
				defer wg.Done()
				o.work(w, fn)
			}(&ws[i])
		}
		wg.Wait()
	}
	for i := range ws {
		if ws[i].stop != nil {
			for _, h := range o.hosts {
				h.spans.reset()
			}
			return ws[i].stop
		}
	}
	return o.merge()
}

// work is one pool worker: it claims runs of o.claim consecutive hosts
// until none is left or it is cancelled.
func (o *Orchestrator) work(w *hostWorker, fn func(*hostWorker, *hostShard)) {
	if w.cancelled() {
		return
	}
	for w.stop == nil {
		first := int(o.next.Add(int64(o.claim))) - o.claim
		if first >= len(o.hosts) {
			return
		}
		for _, h := range o.hosts[first:min(first+o.claim, len(o.hosts))] {
			if w.stop != nil {
				return
			}
			h.err, h.failAt = nil, 0
			sh, err := o.shape(w.id, h.group)
			if err == nil {
				err = h.worker.Bind(sh)
			}
			if err != nil {
				h.err = fmt.Errorf("cluster: host %s: %w", h.name, err)
				continue
			}
			fn(w, h)
			h.assigned = sh.System().AssignedPCPUs()
			h.worker.Unbind()
		}
	}
}

// merge walks the hosts in ID order, as the serial loop ran them, and
// returns the failure that loop reported: each failure bounds the hosts
// after it to strictly earlier events, so the failure kept is the
// (time, host ID)-first one. Hosts are independent, so each host's first
// failure is the same whichever worker ran it. Buffered spans are
// forwarded to the sink under the same bound, which leaves exactly the
// spans the serial loop emitted.
func (o *Orchestrator) merge() error {
	var err error
	bound := math.Inf(1)
	for _, h := range o.hosts {
		if o.sink != nil {
			for i, ev := range h.spans.events {
				if h.spans.at[i] < bound {
					o.sink.Emit(ev)
				}
			}
			h.spans.reset()
		}
		if h.err != nil && h.failAt < bound {
			err, bound = h.err, h.failAt
		}
	}
	return err
}

// arm prepares every host for one replication: reseed and reset the
// shard, re-establish slot admission (parked flags and generator
// enables persist across resets, so only transitions are flipped), and
// begin the run. Like collect, it is one bounded step per host and runs
// to completion; cancellation is checked in the windows between them.
func (o *Orchestrator) arm(seed uint64) error {
	o.hooked = false
	for _, h := range o.hosts {
		o.hooked = o.hooked || h.inst.HasFireHooks()
	}
	return o.forHosts(context.Background(), 0, func(_ *hostWorker, h *hostShard) {
		h.err = o.armHost(h, seed)
	})
}

func (o *Orchestrator) armHost(h *hostShard, seed uint64) error {
	if err := h.worker.Arm(hostSeed(seed, h.id)); err != nil {
		return fmt.Errorf("cluster: host %s: %w", h.name, err)
	}
	sys := h.worker.System()
	for i := range h.slots {
		s := &h.slots[i]
		s.phase = slotParked
		if s.startsUp {
			s.phase = slotAdmitted
		}
		s.drainStart = 0
		admitted := s.phase == slotAdmitted
		if err := sys.SetVMParked(i, !admitted); err != nil {
			return err
		}
		if h.genEnabled[i] != admitted {
			if err := h.inst.SetActivityEnabled(sys.GenerateActivityName(i), admitted); err != nil {
				return fmt.Errorf("cluster: host %s: %w", h.name, err)
			}
			h.genEnabled[i] = admitted
		}
	}
	if err := h.inst.BeginRun(o.topo.Warmup, o.topo.Horizon); err != nil {
		return fmt.Errorf("cluster: host %s: %w", h.name, err)
	}
	return nil
}

// seed the cluster event queue for one replication.
func (o *Orchestrator) seedEvents() {
	if p, ok := o.policy.(interface{ reset() }); ok {
		p.reset()
	}
	o.events = o.events[:0]
	o.seq = 0
	o.queue = o.queue[:0]
	o.dispatches, o.migrations = 0, 0
	o.downtime, o.placeWaitSum = 0, 0
	o.placed = 0
	for _, a := range o.topo.Arrivals {
		o.push(clusterEvent{time: a.At, kind: evArrival, count: a.Count, vcpus: a.VCPUs})
	}
	if m := o.topo.Migration; m != nil && m.CheckEvery < o.topo.Horizon {
		o.push(clusterEvent{time: m.CheckEvery, kind: evCheck})
	}
}

func (o *Orchestrator) push(ev clusterEvent) {
	ev.seq = o.seq
	o.seq++
	o.events.push(ev)
}

// Replicate runs one cluster replication seeded with seed and returns
// the fleet metric map. Hosts share no state between cluster events, so
// it advances in windows: every host processes its events before the
// next cluster event time ct (capped at the horizon), hosts spread over
// a pool of goroutines (see poolSize), then the cluster events at ct run
// serially in seq order. Each cluster event thus sees every host as the
// global total order would show it (cluster events before host events at
// equal times, hosts by ID). Same seed, same topology: same map, bit for
// bit, at any GOMAXPROCS and any parallelism.
func (o *Orchestrator) Replicate(ctx context.Context, seed uint64) (map[string]float64, error) {
	replicating.Add(1)
	defer replicating.Add(-1)
	if err := o.arm(seed); err != nil {
		return nil, err
	}
	o.seedEvents()
	horizon := o.topo.Horizon
	for {
		ct := math.Inf(1)
		if len(o.events) > 0 {
			ct = o.events[0].time
		}
		if err := o.advanceHosts(ctx, math.Min(ct, horizon)); err != nil {
			return nil, err
		}
		if ct >= horizon {
			break
		}
		for len(o.events) > 0 && o.events[0].time == ct {
			if err := o.handle(o.events.pop()); err != nil {
				return nil, err
			}
		}
	}
	return o.collect()
}

// advanceHosts runs every host through its events before end, on the
// host pool. The failure returned is the one the (event time, host ID)
// total order reaches first; each worker checks ctx every 8192 events.
func (o *Orchestrator) advanceHosts(ctx context.Context, end float64) error {
	return o.forHosts(ctx, end, advanceHost)
}

// advanceHost runs one host to the worker's window end, stopping at the
// host's first failure. The loop keeps the event count in a local: the
// workers' states sit side by side in memory, and writing them per event
// would bounce cache lines between cores.
func advanceHost(w *hostWorker, h *hostShard) {
	events := w.events
	defer func() { w.events = events }()
	for {
		t := h.inst.PeekNextEventTime()
		if t >= w.end {
			return
		}
		if err := h.inst.ProcessNextEvent(); err != nil {
			h.err, h.failAt = fmt.Errorf("cluster: host %s: %w", h.name, err), t
			return
		}
		if events++; events%8192 == 0 && w.cancelled() {
			return
		}
	}
}

// handle executes one cluster event and then retries the placement
// queue (capacity may have freed).
func (o *Orchestrator) handle(ev clusterEvent) error {
	switch ev.kind {
	case evArrival:
		for i := 0; i < ev.count; i++ {
			placed, err := o.place(ev.vcpus, ev.time, ev.time)
			if err != nil {
				return err
			}
			if !placed {
				o.queue = append(o.queue, queuedVM{vcpus: ev.vcpus, arrived: ev.time})
			}
		}
	case evCheck:
		if err := o.migrationCheck(ev.time); err != nil {
			return err
		}
	case evAdmit:
		h := o.hosts[ev.host]
		if err := o.admit(h, ev.slot); err != nil {
			return err
		}
		o.migrations++
		o.downtime += ev.time - ev.drainStart
		if o.sink != nil {
			o.sink.Emit(obs.Event{Kind: obs.KindMigrate, Attrs: map[string]any{
				"t": ev.time, "from": o.hosts[ev.srcHost].name, "to": h.name,
				"vcpus": h.slots[ev.slot].vcpus, "downtime": ev.time - ev.drainStart,
			}})
		}
	}
	// FIFO retry: only the head may jump the queue.
	for len(o.queue) > 0 {
		q := o.queue[0]
		placed, err := o.place(q.vcpus, ev.time, q.arrived)
		if err != nil {
			return err
		}
		if !placed {
			break
		}
		o.queue = o.queue[1:]
	}
	return nil
}

// snapshotLoads fills the policy's per-host view.
func (o *Orchestrator) snapshotLoads(vcpus int) []HostLoad {
	for i, h := range o.hosts {
		o.loads[i] = HostLoad{
			ID:            h.id,
			PCPUs:         h.pcpus,
			AdmittedVCPUs: h.admittedVCPUs(),
			Fits:          h.fits(vcpus) >= 0,
		}
	}
	return o.loads
}

// place routes one VM through the placement policy; false means no host
// fits and the VM must queue. A policy choosing a host that does not
// fit the VM, and a failed admission, are errors, not queued VMs.
func (o *Orchestrator) place(vcpus int, now, arrived float64) (bool, error) {
	hid := o.policy.Place(vcpus, o.snapshotLoads(vcpus))
	if hid < 0 {
		return false, nil
	}
	h := o.hosts[hid]
	slot := h.fits(vcpus)
	if slot < 0 {
		return false, fmt.Errorf("cluster: placement policy %s picked host %s, which has no free slot for a %d-VCPU VM", o.policy.Name(), h.name, vcpus)
	}
	if err := o.admit(h, slot); err != nil {
		return false, fmt.Errorf("cluster: host %s: admitting slot %d: %w", h.name, slot, err)
	}
	o.dispatches++
	o.placed++
	o.placeWaitSum += now - arrived
	if o.sink != nil {
		o.sink.Emit(obs.Event{Kind: obs.KindDispatch, Attrs: map[string]any{
			"t": now, "host": h.name, "vcpus": vcpus, "wait": now - arrived,
		}})
	}
	return true, nil
}

// admit makes slot resident on host h: unpark it in the scheduler's view
// and re-enable its workload generator. Both are non-marking state, so
// admission needs no model event — the VM starts at the host's next
// scheduler tick.
func (o *Orchestrator) admit(h *hostShard, slot int) error {
	if err := o.onHost(h, func(sys *core.System) error { return sys.SetVMParked(slot, false) }); err != nil {
		return err
	}
	if !h.genEnabled[slot] {
		if err := h.inst.SetActivityEnabled(o.genName(h, slot), true); err != nil {
			return err
		}
		h.genEnabled[slot] = true
	}
	h.slots[slot].phase = slotAdmitted
	return nil
}

// migrationCheck is one threshold scan at virtual time t: finish any
// drained migrations (evict at t, re-admit after the transfer delay),
// then start new drains on overloaded hosts, then schedule the next
// check.
func (o *Orchestrator) migrationCheck(t float64) error {
	m := o.topo.Migration
	// Phase 1: complete drains whose VM has run dry. Eviction mutates the
	// marking, so it runs inside Exec at a stable marking.
	for _, h := range o.hosts {
		if !slices.ContainsFunc(h.slots, func(s slotState) bool { return s.phase == slotDraining }) {
			continue
		}
		err := o.onHost(h, func(sys *core.System) error {
			for i := range h.slots {
				s := &h.slots[i]
				if s.phase != slotDraining || !sys.VMDrained(i) {
					continue
				}
				var parkErr error
				err := h.inst.Exec(t, func() {
					sys.EvictVM(i)
					parkErr = sys.SetVMParked(i, true)
				})
				if err == nil {
					err = parkErr
				}
				if err != nil {
					return fmt.Errorf("cluster: host %s: evicting slot %d: %w", h.name, i, err)
				}
				h.assigned = sys.AssignedPCPUs()
				s.phase = slotParked
				o.push(clusterEvent{
					time: t + m.TransferDelay, kind: evAdmit,
					host: s.tgtHost, slot: s.tgtSlot, srcHost: h.id, drainStart: s.drainStart,
				})
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	// Phase 2: start new drains. Hosts scan in ID order; one migration
	// initiation per overloaded host per check, toward the host below the
	// low threshold with the lowest utilization (lowest ID on ties) that
	// fits the VM. No host advances during the check, so utilizations are
	// computed once and the candidates sorted once; reservations only
	// remove capacity, so a candidate that cannot fit a width never fits
	// it again within the check, and a cursor per width skips it for good.
	// A source is above the high threshold and so never a candidate.
	o.cands = o.cands[:0]
	for _, h := range o.hosts {
		o.util[h.id] = float64(h.assigned) / float64(h.pcpus)
		if o.util[h.id] < m.LowUtil {
			o.cands = append(o.cands, h.id)
		}
	}
	slices.SortFunc(o.cands, func(a, b int) int {
		if c := cmp.Compare(o.util[a], o.util[b]); c != 0 {
			return c
		}
		return a - b
	})
	clear(o.cursor)
	for _, src := range o.hosts {
		if o.util[src.id] <= m.HighUtil {
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
		width := src.slots[slot].vcpus
		c, tgtSlot := o.cursor[width], -1
		for ; c < len(o.cands); c++ {
			if tgtSlot = o.hosts[o.cands[c]].fits(width); tgtSlot >= 0 {
				break
			}
		}
		o.cursor[width] = c
		if tgtSlot < 0 {
			continue
		}
		tgt := o.hosts[o.cands[c]]
		// Begin drain: stop generating on the source slot (non-marking)
		// and reserve the target slot so nothing else books it.
		if src.genEnabled[slot] {
			if err := src.inst.SetActivityEnabled(o.genName(src, slot), false); err != nil {
				return err
			}
			src.genEnabled[slot] = false
		}
		src.slots[slot].phase = slotDraining
		src.slots[slot].drainStart = t
		src.slots[slot].tgtHost = tgt.id
		src.slots[slot].tgtSlot = tgtSlot
		tgt.slots[tgtSlot].phase = slotReserved
	}
	if next := t + m.CheckEvery; next < o.topo.Horizon {
		o.push(clusterEvent{time: next, kind: evCheck})
	}
	return nil
}

// genName is the name of host h's slot workload-generator activity.
func (o *Orchestrator) genName(h *hostShard, slot int) string {
	return o.shapes[0][h.group].System().GenerateActivityName(slot)
}

// collect ends every host's run, on the host pool, and aggregates the
// fleet metric map, summing host maps in host-ID order so the fleet
// floats do not depend on the pool.
func (o *Orchestrator) collect() (map[string]float64, error) {
	err := o.forHosts(context.Background(), 0, func(_ *hostWorker, h *hostShard) {
		m, err := h.worker.Collect()
		if err != nil {
			h.err = fmt.Errorf("cluster: host %s: %w", h.name, err)
			return
		}
		o.lastHost[h.id] = m
	})
	if err != nil {
		return nil, err
	}
	n := float64(len(o.hosts))
	out := make(map[string]float64, 16)
	var avail, vutil, putil float64
	admitted := 0
	for _, h := range o.hosts {
		m := o.lastHost[h.id]
		avail += m[core.AvailabilityAvgMetric]
		vutil += m[core.VCPUUtilizationAvgMetric]
		putil += m[core.PCPUUtilizationAvgMetric]
		admitted += h.admittedVCPUs()
	}
	out[FleetAvailMetric] = avail / n
	out[FleetVUtilMetric] = vutil / n
	out[FleetPUtilMetric] = putil / n
	out[DispatchesMetric] = float64(o.dispatches)
	out[MigrationsMetric] = float64(o.migrations)
	out[DowntimeMetric] = o.downtime
	if o.placed > 0 {
		out[PlaceWaitMetric] = o.placeWaitSum / float64(o.placed)
	} else {
		out[PlaceWaitMetric] = 0
	}
	out[QueuedAtEndMetric] = float64(len(o.queue))
	out[AdmittedVCPUMetric] = float64(admitted)
	return out, nil
}

// ReplicatorFactory adapts the topology to the sim package's pooled
// replication machinery: each worker slot compiles its own orchestrator
// once and reuses it across the replications that slot runs. Results are
// byte-identical at any parallelism — each replication is a pure
// function of its seed.
func (t *Topology) ReplicatorFactory(sink obs.Sink, acc *obs.Accumulator) sim.ReplicatorFactory {
	return func() (sim.Replicator, error) {
		o, err := New(t)
		if err != nil {
			return nil, err
		}
		o.SetSink(sink)
		return func(ctx context.Context, rep int, seed uint64) (map[string]float64, error) {
			out, err := o.Replicate(ctx, seed)
			if err != nil {
				return nil, err
			}
			if acc != nil {
				acc.Add(o.LastStats())
			}
			return out, nil
		}, nil
	}
}
