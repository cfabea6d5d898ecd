package sanalyze

import (
	"encoding/binary"
	"fmt"

	"vcpusim/internal/san"
)

// reachResult is the outcome of the explicit-state exploration.
type reachResult struct {
	ran        string // empty when the exploration ran, else the skip reason
	states     int
	firings    int
	budgetHit  bool
	cut        bool // some branch was cut (unbounded growth or livelock)
	deadlock   *Finding
	findings   []Finding
	maxTokens  []int
	fired      map[string]bool
	activities int
}

// complete reports that the whole reachability set was enumerated, so
// exact bounds and dead-activity verdicts are sound.
func (rr *reachResult) complete() bool {
	return rr.ran == "" && !rr.budgetHit && !rr.cut
}

func (rr *reachResult) summary() ReachSummary {
	if rr.ran != "" {
		return ReachSummary{SkipReason: rr.ran}
	}
	return ReachSummary{
		Ran:      true,
		States:   rr.states,
		Firings:  rr.firings,
		Complete: rr.complete(),
	}
}

// explorer carries the DFS state.
type explorer struct {
	n   *net
	opt Options

	timed    []int // indices into n.acts, definition order
	instants []int // indices into n.acts, (priority asc, definition) order

	visited map[string]bool
	// unbounded marks places already reported unbounded: the first
	// pumping path found (in DFS order) stands for the rest.
	unbounded []bool
	// path is the DFS ancestor chain: markings with the firing sequence
	// that produced each, used for Karp–Miller domination and traces.
	path []pathStep

	res *reachResult
}

type pathStep struct {
	m   []int
	seq []string // firings that led from the parent step to m
}

// explore runs bounded explicit-state reachability. It only applies to
// pure-arc nets — every activity's enabling condition and effect must be
// exactly its counted arcs — because gate closures cannot be executed
// symbolically; on gate-coupled models it records a skip reason and the
// caller falls back to the certificate-based passes.
func explore(n *net, opt Options) *reachResult {
	res := &reachResult{
		fired:      map[string]bool{},
		maxTokens:  make([]int, len(n.places)),
		activities: len(n.acts),
	}
	impure := 0
	for i := range n.acts {
		if !n.acts[i].pure() {
			impure++
		}
	}
	if impure > 0 {
		res.ran = fmt.Sprintf("%d of %d activities are gate-coupled (opaque enabling or effect)", impure, len(n.acts))
		return res
	}
	if len(n.acts) == 0 {
		res.ran = "no activities"
		return res
	}

	e := &explorer{
		n: n, opt: opt, res: res,
		visited:   map[string]bool{},
		unbounded: make([]bool, len(n.places)),
	}
	for i := range n.acts {
		if n.acts[i].disabled {
			continue
		}
		if n.acts[i].kind == san.Timed {
			e.timed = append(e.timed, i)
		} else {
			e.instants = append(e.instants, i)
		}
	}
	// Instantaneous firing order mirrors san.Compile: priority
	// ascending, then definition order.
	for i := 1; i < len(e.instants); i++ {
		for j := i; j > 0; j-- {
			a, b := &n.acts[e.instants[j-1]], &n.acts[e.instants[j]]
			if a.priority < b.priority || (a.priority == b.priority && a.defined < b.defined) {
				break
			}
			e.instants[j], e.instants[j-1] = e.instants[j-1], e.instants[j]
		}
	}

	m0 := n.initialMarking()
	var initSeq []string
	if !e.stabilize(m0, &initSeq) {
		return res
	}
	e.note(m0)
	e.visited[markingKey(m0)] = true
	res.states = 1
	e.path = append(e.path, pathStep{m: m0, seq: initSeq})
	e.dfs()
	return res
}

// dfs explores depth-first from the last path step.
func (e *explorer) dfs() {
	m := e.path[len(e.path)-1].m
	if e.res.states > e.opt.MaxStates || e.res.firings > e.opt.MaxFirings {
		e.res.budgetHit = true
		return
	}

	anyEnabled := false
	for _, ai := range e.timed {
		a := &e.n.acts[ai]
		if !enabled(a, m) {
			continue
		}
		anyEnabled = true
		m2 := append([]int(nil), m...)
		seq := []string{a.name}
		if !e.fire(a, m2) {
			continue
		}
		if !e.stabilize(m2, &seq) {
			continue
		}
		e.note(m2)
		if e.dominates(m2, seq) {
			continue
		}
		key := markingKey(m2)
		if e.visited[key] {
			continue
		}
		e.visited[key] = true
		e.res.states++
		e.path = append(e.path, pathStep{m: m2, seq: seq})
		e.dfs()
		e.path = e.path[:len(e.path)-1]
		if e.res.budgetHit {
			return
		}
	}
	if !anyEnabled && e.res.deadlock == nil {
		e.res.deadlock = &Finding{
			Check:     CheckDeadlock,
			Severity:  Error,
			Component: "model " + e.n.name,
			Message:   "reachable marking enables no activity: the simulation would stall with an empty event list",
			Trace:     e.traceTo(len(e.path)),
		}
		e.res.findings = append(e.res.findings, *e.res.deadlock)
	}
}

// dominates checks the new marking against every DFS ancestor; strict
// domination (≥ everywhere, > somewhere) proves unbounded growth for the
// strictly larger places (the Karp–Miller coverability argument: the
// connecting firing sequence can be repeated forever). Each place is
// reported once, on the first pumping path found.
func (e *explorer) dominates(m2 []int, seq []string) bool {
	for _, anc := range e.path {
		ge, gt := true, -1
		for p := range m2 {
			if m2[p] < anc.m[p] {
				ge = false
				break
			}
			if m2[p] > anc.m[p] {
				gt = p
			}
		}
		if ge && gt >= 0 {
			e.res.cut = true
			var trace []string
			for p := range m2 {
				if m2[p] > anc.m[p] && !e.unbounded[p] {
					e.unbounded[p] = true
					if trace == nil {
						trace = append(e.traceTo(len(e.path)), seq...)
					}
					e.res.findings = append(e.res.findings, Finding{
						Check:     CheckUnbounded,
						Severity:  Error,
						Component: "place " + e.n.places[p].name,
						Message: fmt.Sprintf("unbounded: the trailing firing sequence pumps the marking from %d to %d and can repeat forever",
							anc.m[p], m2[p]),
						Trace: trace,
					})
				}
			}
			return true
		}
	}
	return false
}

// stabilize fires enabled instantaneous activities (lowest priority
// first, mirroring the engine) until none is enabled, appending each
// firing to seq. It returns false when the chain hits the livelock cap
// or a firing would drive a marking negative.
func (e *explorer) stabilize(m []int, seq *[]string) bool {
	for steps := 0; ; steps++ {
		if steps >= e.opt.StabilizeCap {
			e.res.cut = true
			e.res.findings = append(e.res.findings, Finding{
				Check:     CheckLivelock,
				Severity:  Error,
				Component: "model " + e.n.name,
				Message: fmt.Sprintf("instantaneous activities still enabled after %d chained firings (runtime livelock guard would abort the run)",
					e.opt.StabilizeCap),
				Trace: append(e.traceTo(len(e.path)), *seq...),
			})
			return false
		}
		fired := false
		for _, ai := range e.instants {
			a := &e.n.acts[ai]
			if !enabled(a, m) {
				continue
			}
			*seq = append(*seq, a.name)
			if !e.fire(a, m) {
				return false
			}
			fired = true
			break
		}
		if !fired {
			return true
		}
	}
}

// enabled mirrors the runtime check: every counted input arc installs an
// independent ≥ predicate, so the per-place requirement is the largest
// single arc, not the consumption sum.
func enabled(a *actNode, m []int) bool {
	for _, x := range a.inReq {
		if m[x.place] < x.n {
			return false
		}
	}
	return true
}

// fire applies the counted effect in place. A negative result marking is
// a modeling error (the runtime records it and aborts); it is reported
// once and the branch abandoned.
func (e *explorer) fire(a *actNode, m []int) bool {
	e.res.firings++
	e.res.fired[a.name] = true
	for _, x := range a.in {
		m[x.place] -= x.n
	}
	for _, x := range a.out {
		m[x.place] += x.n
	}
	for p, v := range m {
		if v < 0 {
			e.res.cut = true
			e.res.findings = append(e.res.findings, Finding{
				Check:     CheckNegativeMarking,
				Severity:  Error,
				Component: "place " + e.n.places[p].name,
				Message: fmt.Sprintf("firing %s drives the marking to %d (multiple input arcs on one place check independently but consume cumulatively)",
					a.name, v),
				Trace: e.traceTo(len(e.path)),
			})
			return false
		}
	}
	return true
}

// note records per-place maxima.
func (e *explorer) note(m []int) {
	for p, v := range m {
		if v > e.res.maxTokens[p] {
			e.res.maxTokens[p] = v
		}
	}
}

// traceTo flattens the firing sequences of the first n path steps.
func (e *explorer) traceTo(n int) []string {
	var out []string
	for _, s := range e.path[:n] {
		out = append(out, s.seq...)
	}
	return out
}

// deadFindings reports activities that never fired over a completely
// explored state space. Disabled activities are excluded by
// construction: they are never candidates, so they are never "dead".
func deadFindings(n *net, rr *reachResult) []Finding {
	if !rr.complete() {
		return nil
	}
	var out []Finding
	for i := range n.acts {
		a := &n.acts[i]
		if a.disabled || rr.fired[a.name] {
			continue
		}
		out = append(out, Finding{
			Check:     CheckDeadActivity,
			Severity:  Error,
			Component: "activity " + a.name,
			Message:   fmt.Sprintf("never enabled in any of the %d reachable markings", rr.states),
		})
	}
	return out
}

// markingKey canonically hashes a marking vector.
func markingKey(m []int) string {
	buf := make([]byte, 0, len(m)*2)
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range m {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(v))]...)
	}
	return string(buf)
}
