package sanalyze

import "fmt"

// invariants computes semipositive P-invariants (and, on fully pure-arc
// nets, T-invariants) of the documented incidence matrix with the Farkas
// variant of integer Gaussian elimination: start from the identity
// appended to the matrix, then eliminate each column by combining
// sign-opposite rows, so every surviving row is a nonnegative integer
// solution of yᵀC = 0 (resp. Cx = 0).
func invariants(n *net, r *Report) (pinvs, tinvs []Invariant) {
	// P-invariants: rows are eligible places, columns are activity
	// effects. Effects on eligible places are exact by construction.
	var eligible []int
	for p := range n.places {
		if n.eligible(p) {
			eligible = append(eligible, p)
		}
	}
	rows := make([]farkasRow, 0, len(eligible))
	for yi, p := range eligible {
		row := farkasRow{c: make([]int64, len(n.acts)), y: make([]int64, len(eligible))}
		for ai := range n.acts {
			row.c[ai] = int64(n.acts[ai].effect(p))
		}
		row.y[yi] = 1
		rows = append(rows, row)
	}
	// truncated reports a basis farkas had to cut at maxInvariantRows.
	truncated := func(basis, consequence string) {
		r.Findings = append(r.Findings, Finding{
			Check:     CheckBudget,
			Severity:  Warning,
			Component: "model " + n.name,
			Message:   fmt.Sprintf("%s basis truncated at %d rows; %s", basis, maxInvariantRows, consequence),
		})
	}
	sols, complete := farkas(rows, len(n.acts))
	if !complete {
		truncated("P-invariant", "boundedness certificates may be incomplete")
	}
	for _, y := range sols {
		iv := Invariant{Weights: map[string]int64{}}
		for yi, w := range y {
			if w != 0 {
				p := eligible[yi]
				iv.Weights[n.places[p].name] = w
				iv.Value += w * int64(n.places[p].initial)
			}
		}
		pinvs = append(pinvs, iv)
	}

	// T-invariants need every column exact, i.e. a fully pure-arc net.
	pure := true
	for i := range n.acts {
		if !n.acts[i].pure() {
			pure = false
			break
		}
	}
	if pure && len(n.acts) > 0 {
		rows = rows[:0]
		for ai := range n.acts {
			row := farkasRow{c: make([]int64, len(n.places)), y: make([]int64, len(n.acts))}
			for p := range n.places {
				row.c[p] = int64(n.acts[ai].effect(p))
			}
			row.y[ai] = 1
			rows = append(rows, row)
		}
		sols, complete = farkas(rows, len(n.places))
		if !complete {
			truncated("T-invariant", "the reported T-invariants may be incomplete")
		}
		for _, x := range sols {
			iv := Invariant{Weights: map[string]int64{}}
			for ai, w := range x {
				if w != 0 {
					iv.Weights[n.acts[ai].name] = w
				}
			}
			tinvs = append(tinvs, iv)
		}
	}
	return pinvs, tinvs
}

// farkasRow carries a working row [c | y] of the Farkas tableau: c is
// the remaining matrix part, y the nonnegative combination built so far.
type farkasRow struct {
	c []int64
	y []int64
}

// farkas eliminates the cols columns of the tableau and returns the
// minimal-support semipositive solutions. complete is false when the
// working set hit maxInvariantRows and had to be truncated.
func farkas(rows []farkasRow, cols int) (sols [][]int64, complete bool) {
	complete = true
	for col := 0; col < cols; col++ {
		var zero, pos, neg []farkasRow
		for _, r := range rows {
			switch {
			case r.c[col] == 0:
				zero = append(zero, r)
			case r.c[col] > 0:
				pos = append(pos, r)
			default:
				neg = append(neg, r)
			}
		}
		next := zero
		for _, rp := range pos {
			for _, rn := range neg {
				if len(next) >= maxInvariantRows {
					complete = false
					break
				}
				// λp·rp + λn·rn with λp = -rn.c[col] > 0, λn = rp.c[col] > 0
				// zeroes the column and keeps y nonnegative.
				lp, ln := -rn.c[col], rp.c[col]
				nr := farkasRow{c: make([]int64, len(rp.c)), y: make([]int64, len(rp.y))}
				for i := range nr.c {
					nr.c[i] = lp*rp.c[i] + ln*rn.c[i]
				}
				for i := range nr.y {
					nr.y[i] = lp*rp.y[i] + ln*rn.y[i]
				}
				normalize(&nr)
				next = append(next, nr)
			}
			if !complete {
				break
			}
		}
		rows = dedupeRows(next)
	}
	// Every surviving row solves yᵀC = 0. Keep minimal-support,
	// non-trivial solutions only.
	for _, r := range rows {
		if isZero(r.y) {
			continue
		}
		sols = append(sols, r.y)
	}
	sols = minimalSupport(sols)
	return sols, complete
}

// normalize divides a row by the gcd of all its entries.
func normalize(r *farkasRow) {
	var g int64
	for _, v := range r.c {
		g = gcd64(g, v)
	}
	for _, v := range r.y {
		g = gcd64(g, v)
	}
	if g > 1 {
		for i := range r.c {
			r.c[i] /= g
		}
		for i := range r.y {
			r.y[i] /= g
		}
	}
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func isZero(v []int64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// dedupeRows drops exact duplicates, preserving order.
func dedupeRows(rows []farkasRow) []farkasRow {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := fmt.Sprint(r.c, r.y)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

// minimalSupport keeps solutions whose support is not a strict superset
// of another solution's support (the minimal-support invariants that
// generate the rest).
func minimalSupport(sols [][]int64) [][]int64 {
	support := func(v []int64) map[int]bool {
		s := map[int]bool{}
		for i, x := range v {
			if x != 0 {
				s[i] = true
			}
		}
		return s
	}
	sups := make([]map[int]bool, len(sols))
	for i, v := range sols {
		sups[i] = support(v)
	}
	var out [][]int64
	for i := range sols {
		minimal := true
		for j := range sols {
			if i == j || len(sups[j]) >= len(sups[i]) {
				continue
			}
			subset := true
			for p := range sups[j] {
				if !sups[i][p] {
					subset = false
					break
				}
			}
			if subset {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, sols[i])
		}
	}
	return out
}
