package san

import (
	"fmt"
	"strings"
	"testing"

	"vcpusim/internal/rng"
)

// TestRunnerFailsFastOnNegativeMarking verifies the error-sink contract:
// a modeling error recorded mid-run (here an output gate driving a place
// negative) aborts the replication at the offending event instead of
// letting the run finish to the horizon on clamped state.
func TestRunnerFailsFastOnNegativeMarking(t *testing.T) {
	m := NewModel("failfast")
	s := m.Sub("s")
	p := s.Place("p", 1)
	fired := 0
	broken := s.TimedActivity("broken", rng.Deterministic{Value: 5})
	broken.AddCase(nil, func() {
		fired++
		p.SetTokens(p.Tokens() - 2) // 1 - 2 < 0
	})
	broken.Link(LinkInput, p.Name())
	broken.Link(LinkOutput, p.Name())

	r, err := compileReset(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(1000)
	if err == nil {
		t.Fatal("negative marking did not fail the run")
	}
	if !strings.Contains(err.Error(), "marked negative") {
		t.Errorf("err = %v, want the negative-marking error", err)
	}
	// The kernel halted at the first completion (t=5); without the error
	// sink the always-enabled activity would have fired 199 more times on
	// clamped state before the horizon.
	if fired != 1 {
		t.Errorf("run continued past the failure: %d firings", fired)
	}
	// The marking was still clamped, so later (non-aborting) consumers see
	// a sane value.
	if p.Tokens() != 0 {
		t.Errorf("tokens = %d, want clamped 0", p.Tokens())
	}
}

// TestRunnerFailsFastOnReportError verifies user gate code can abort a
// replication through Model.ReportError.
func TestRunnerFailsFastOnReportError(t *testing.T) {
	m := NewModel("reportfail")
	s := m.Sub("s")
	p := s.Place("p", 1)
	count := 0
	act := s.TimedActivity("act", rng.Deterministic{Value: 1})
	act.AddCase(nil, func() {
		count++
		if count == 3 {
			m.ReportError(fmt.Errorf("scheduler invariant violated"))
		}
	})
	act.Link(LinkInput, p.Name())
	act.Link(LinkOutput, p.Name())

	r, err := compileReset(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(1000); err == nil || !strings.Contains(err.Error(), "invariant violated") {
		t.Fatalf("err = %v, want the reported error", err)
	}
	if count != 3 {
		t.Errorf("activity fired %d times after the reported error, want exactly 3", count)
	}
}
