package sanalyze

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vcpusim/internal/san"
)

// Lint check identifiers, stable across releases so tooling can filter
// on them. The lint fixpoint pass also reports CheckDeadActivity.
const (
	// CheckCaseWeights: an activity's case weights are negative, all zero,
	// or do not sum to 1 under the initial marking.
	CheckCaseWeights = "case-weights"
	// CheckUnknownLink: a documented link references a place name that
	// does not exist in the model.
	CheckUnknownLink = "unknown-link"
	// CheckNeverRead: a place is written by activities but read by none
	// and referenced by no reward variable.
	CheckNeverRead = "place-never-read"
	// CheckNeverWritten: an initially empty place is read by activities
	// but written by none.
	CheckNeverWritten = "place-never-written"
	// CheckInstantCycle: instantaneous activities form a token cycle that
	// could livelock marking stabilization.
	CheckInstantCycle = "instant-cycle"
	// CheckUnsharedJoin: an activity uses a place that is not shared
	// (joined) into the activity's submodel.
	CheckUnsharedJoin = "unshared-join"
	// CheckRewardRef: a reward variable references an unknown place or
	// activity.
	CheckRewardRef = "reward-ref"
	// CheckIsolatedPlace: a place has no links and no reward references.
	CheckIsolatedPlace = "isolated-place"
)

// weightTolerance is the slack allowed when comparing a case-weight sum
// against 1.
const weightTolerance = 1e-9

// Lint checks the structure snapshot for shape defects: mis-normalized
// case weights, dangling links and reward references, undeclared join
// sharing, one-sided place flow, activities no documented arc can ever
// enable, and instantaneous token cycles. Run it on a freshly built
// model's snapshot, before any replication.
//
// Gate predicates and output functions are opaque Go closures, so every
// check reasons over the documented structure only. The checks are
// conservative: a finding always points at a structural defect or at
// missing Link/Share/reward-reference documentation — both are worth
// fixing, because the documented structure is what DOT export,
// structural tests, and Analyze see.
//
// Findings come in a deterministic order: checks in a fixed sequence,
// definition order within each check.
func Lint(st san.Structure) []Finding {
	l := newLinter(st)
	l.checkCaseWeights()
	l.checkLinks() // unknown-link and unshared-join
	l.checkPlaceFlow()
	l.checkDeadActivities()
	l.checkInstantCycles()
	l.checkRewardRefs()
	return l.findings
}

// linter carries the indexed structure and accumulated findings.
type linter struct {
	st       san.Structure
	place    map[string]*san.PlaceInfo
	activity map[string]bool
	// readBy / writtenBy count documented links per place name.
	readBy    map[string]int
	writtenBy map[string]int
	// rewardRefs marks every name a reward variable references.
	rewardRefs map[string]bool
	findings   []Finding
}

func newLinter(st san.Structure) *linter {
	l := &linter{
		st:         st,
		place:      make(map[string]*san.PlaceInfo, len(st.Places)),
		activity:   make(map[string]bool, len(st.Activities)),
		readBy:     make(map[string]int),
		writtenBy:  make(map[string]int),
		rewardRefs: make(map[string]bool),
	}
	for i := range st.Places {
		l.place[st.Places[i].Name] = &st.Places[i]
	}
	for _, act := range st.Activities {
		l.activity[act.Name] = true
		for _, lk := range act.Links {
			switch lk.Kind {
			case san.LinkInput:
				l.readBy[lk.Place]++
			case san.LinkOutput:
				l.writtenBy[lk.Place]++
			}
		}
	}
	for _, r := range st.Rewards {
		for _, ref := range r.Refs {
			l.rewardRefs[ref] = true
		}
		if r.Activity != "" {
			l.rewardRefs[r.Activity] = true
		}
	}
	return l
}

func (l *linter) report(check string, sev Severity, component, format string, args ...any) {
	l.findings = append(l.findings, Finding{
		Check:     check,
		Severity:  sev,
		Component: component,
		Message:   fmt.Sprintf(format, args...),
	})
}

// submodelOf returns the component's submodel (the prefix before the first
// '/'), or "" for unqualified names.
func submodelOf(name string) string {
	if sub, _, found := strings.Cut(name, "/"); found {
		return sub
	}
	return ""
}

// checkCaseWeights verifies that every multi-case activity's weights,
// evaluated under the initial marking, are non-negative, not all zero, and
// sum to 1 (case weights are the paper's case probabilities; the runtime
// normalizes them, but a sum away from 1 almost always means a forgotten
// case or a typo).
func (l *linter) checkCaseWeights() {
	for _, act := range l.st.Activities {
		if len(act.Cases) < 2 {
			continue // zero or one case: the implicit/sole case always fires
		}
		sum := 0.0
		negative := false
		for i, c := range act.Cases {
			if c.Weight < 0 || math.IsNaN(c.Weight) {
				l.report(CheckCaseWeights, Error, act.Name,
					"case %d has invalid weight %g", i, c.Weight)
				negative = true
				continue
			}
			sum += c.Weight
		}
		switch {
		case negative:
			// Already reported per case.
		case sum <= 0:
			l.report(CheckCaseWeights, Error, act.Name,
				"all %d case weights are zero under the initial marking", len(act.Cases))
		case math.Abs(sum-1) > weightTolerance:
			l.report(CheckCaseWeights, Warning, act.Name,
				"case probabilities sum to %g, not 1", sum)
		}
	}
}

// checkLinks verifies that every documented link targets an existing place
// and that the place is joined into the linking activity's submodel.
func (l *linter) checkLinks() {
	for _, act := range l.st.Activities {
		sub := submodelOf(act.Name)
		for _, lk := range act.Links {
			p, ok := l.place[lk.Place]
			if !ok {
				l.report(CheckUnknownLink, Error, act.Name,
					"link references unknown place %q", lk.Place)
				continue
			}
			joined := false
			for _, j := range p.Joins {
				if j == sub {
					joined = true
					break
				}
			}
			if !joined {
				l.report(CheckUnsharedJoin, Error, act.Name,
					"uses place %s, which is not shared into submodel %q (declared in %v; missing Join)",
					p.Name, sub, p.Joins)
			}
		}
	}
}

// checkPlaceFlow flags places whose documented token flow is one-sided:
// written but never read (tokens accumulate unobserved), or read while
// initially empty and never written (the read can never see a token). It
// also flags places with no links and no reward references at all.
func (l *linter) checkPlaceFlow() {
	for _, p := range l.st.Places {
		reads, writes := l.readBy[p.Name], l.writtenBy[p.Name]
		switch {
		case reads == 0 && writes == 0:
			if !l.rewardRefs[p.Name] {
				l.report(CheckIsolatedPlace, Info, p.Name,
					"no activity links and no reward references; dead state")
			}
		case writes > 0 && reads == 0 && !l.rewardRefs[p.Name]:
			l.report(CheckNeverRead, Warning, p.Name,
				"written by %d activity link(s) but never read and not referenced by any reward", writes)
		case reads > 0 && writes == 0 && !p.Extended && p.Initial == 0:
			l.report(CheckNeverWritten, Warning, p.Name,
				"read by %d activity link(s) but initially empty and never written", reads)
		}
	}
}

// requiredInputs returns the counted places an activity needs tokens in
// before it can complete, per its documented input arcs (Tokens > 0).
// Read-only links (Tokens == 0, e.g. zero tests) and extended places do not
// gate enabling in this approximation.
func (l *linter) requiredInputs(act san.ActivityInfo) []string {
	var req []string
	for _, lk := range act.Links {
		if lk.Kind != san.LinkInput || lk.Tokens <= 0 {
			continue
		}
		if p, ok := l.place[lk.Place]; ok && !p.Extended {
			req = append(req, lk.Place)
		}
	}
	return req
}

// checkDeadActivities computes a reachability fixpoint over the documented
// arcs: a place is potentially markable if it starts marked or some
// potentially fireable activity writes it; an activity is potentially
// fireable if every input arc's place is potentially markable. Activities
// outside the fixpoint can never be enabled under the initial marking —
// the approximation ignores token counts and opaque predicates, so it
// over-approximates enabling and never flags a live activity. Unlike the
// reachability pass in Analyze it applies to gate-coupled models too,
// which is why it only warns.
func (l *linter) checkDeadActivities() {
	marked := make(map[string]bool, len(l.st.Places))
	for _, p := range l.st.Places {
		if p.Extended || p.Initial > 0 {
			marked[p.Name] = true
		}
	}
	fireable := make(map[string]bool, len(l.st.Activities))
	for changed := true; changed; {
		changed = false
		for _, act := range l.st.Activities {
			if fireable[act.Name] {
				continue
			}
			ok := true
			for _, need := range l.requiredInputs(act) {
				if !marked[need] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			fireable[act.Name] = true
			changed = true
			for _, lk := range act.Links {
				if lk.Kind == san.LinkOutput && !marked[lk.Place] {
					marked[lk.Place] = true
				}
			}
		}
	}
	for _, act := range l.st.Activities {
		if !fireable[act.Name] {
			l.report(CheckDeadActivity, Warning, act.Name,
				"can never be enabled under the initial marking (unreachable input tokens: %s)",
				strings.Join(l.unreachableInputs(act, marked), ", "))
		}
	}
}

// unreachableInputs lists the required input places the fixpoint could not
// mark, for the dead-activity message.
func (l *linter) unreachableInputs(act san.ActivityInfo, marked map[string]bool) []string {
	var out []string
	for _, need := range l.requiredInputs(act) {
		if !marked[need] {
			out = append(out, need)
		}
	}
	sort.Strings(out)
	return out
}

// checkInstantCycles finds token cycles among instantaneous activities:
// activity A feeds B when A writes a counted place B consumes. A strongly
// connected component with an internal edge can regenerate its own enabling
// tokens within a single stabilization pass and therefore livelock it.
func (l *linter) checkInstantCycles() {
	// Build the feed graph over instantaneous activities.
	var nodes []string
	index := make(map[string]int)
	for _, act := range l.st.Activities {
		if act.Kind == san.Instantaneous {
			index[act.Name] = len(nodes)
			nodes = append(nodes, act.Name)
		}
	}
	if len(nodes) == 0 {
		return
	}
	consumers := make(map[string][]int) // place -> instantaneous consumers
	for _, act := range l.st.Activities {
		if act.Kind != san.Instantaneous {
			continue
		}
		for _, need := range l.requiredInputs(act) {
			consumers[need] = append(consumers[need], index[act.Name])
		}
	}
	edges := make([][]int, len(nodes))
	for _, act := range l.st.Activities {
		if act.Kind != san.Instantaneous {
			continue
		}
		from := index[act.Name]
		for _, lk := range act.Links {
			if lk.Kind != san.LinkOutput {
				continue
			}
			edges[from] = append(edges[from], consumers[lk.Place]...)
		}
	}
	for _, scc := range stronglyConnected(edges) {
		cyclic := len(scc) > 1
		if !cyclic {
			for _, to := range edges[scc[0]] {
				if to == scc[0] {
					cyclic = true // self-loop
					break
				}
			}
		}
		if !cyclic {
			continue
		}
		names := make([]string, len(scc))
		for i, n := range scc {
			names[i] = nodes[n]
		}
		sort.Strings(names)
		l.report(CheckInstantCycle, Warning, names[0],
			"instantaneous activities form a token cycle that could livelock stabilization: %s",
			strings.Join(names, ", "))
	}
}

// checkRewardRefs verifies every documented reward reference names an
// existing place or activity.
func (l *linter) checkRewardRefs() {
	for _, r := range l.st.Rewards {
		for _, ref := range r.Refs {
			if _, ok := l.place[ref]; ok {
				continue
			}
			if l.activity[ref] {
				continue
			}
			l.report(CheckRewardRef, Error, r.Name,
				"references unknown place or activity %q", ref)
		}
	}
}

// stronglyConnected returns the strongly connected components of the graph
// (Tarjan's algorithm, iterative), each as a slice of node indices.
func stronglyConnected(edges [][]int) [][]int {
	n := len(edges)
	const unvisited = -1
	indexOf := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range indexOf {
		indexOf[i] = unvisited
	}
	var (
		counter int
		stack   []int
		sccs    [][]int
	)
	type frame struct {
		node, edge int
	}
	for start := 0; start < n; start++ {
		if indexOf[start] != unvisited {
			continue
		}
		work := []frame{{node: start}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.node
			if f.edge == 0 {
				indexOf[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.edge < len(edges[v]) {
				w := edges[v][f.edge]
				f.edge++
				if indexOf[w] == unvisited {
					work = append(work, frame{node: w})
					advanced = true
					break
				}
				if onStack[w] && indexOf[w] < low[v] {
					low[v] = indexOf[w]
				}
			}
			if advanced {
				continue
			}
			// All edges explored: close the frame.
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].node
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == indexOf[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sort.Ints(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
