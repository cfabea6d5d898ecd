package sanalyze_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/rng"
	"vcpusim/internal/sanalyze"
	"vcpusim/internal/sanalyze/fixtures"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// checkSet collapses findings to the unique set of check identifiers.
func checkSet(fs []sanalyze.Finding) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range fs {
		if !seen[f.Check] {
			seen[f.Check] = true
			out = append(out, f.Check)
		}
	}
	sort.Strings(out)
	return out
}

// TestLintFixtures verifies every seeded-defect lint fixture triggers
// exactly its expected checks and every clean fixture lints clean.
func TestLintFixtures(t *testing.T) {
	for _, fx := range fixtures.Lint() {
		fx := fx
		t.Run(fx.Name, func(t *testing.T) {
			fs := sanalyze.Lint(fx.Build().Structure())
			got := checkSet(fs)
			want := append([]string(nil), fx.Expect...)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("checks = %v, want %v\nfindings:\n%s",
					got, want, renderFindings(fs))
			}
		})
	}
}

// TestLintFixturePairsCoverEveryCheck guards the lint fixture registry
// itself: each lint check identifier must appear in at least one
// defective fixture, and every defective fixture must have a clean
// counterpart.
func TestLintFixturePairsCoverEveryCheck(t *testing.T) {
	all := fixtures.Lint()
	byName := make(map[string]bool, len(all))
	covered := make(map[string]bool)
	for _, fx := range all {
		byName[fx.Name] = true
		for _, c := range fx.Expect {
			covered[c] = true
		}
	}
	checks := []string{
		sanalyze.CheckCaseWeights, sanalyze.CheckUnknownLink,
		sanalyze.CheckNeverRead, sanalyze.CheckNeverWritten,
		sanalyze.CheckDeadActivity, sanalyze.CheckInstantCycle,
		sanalyze.CheckUnsharedJoin, sanalyze.CheckRewardRef,
		sanalyze.CheckIsolatedPlace,
	}
	for _, c := range checks {
		if !covered[c] {
			t.Errorf("no defective fixture covers check %q", c)
		}
	}
	for _, fx := range all {
		if len(fx.Expect) == 0 {
			continue
		}
		clean := strings.TrimSuffix(fx.Name, "-bad") + "-ok"
		if !byName[clean] {
			t.Errorf("defective fixture %q has no clean counterpart %q", fx.Name, clean)
		}
	}
}

// TestLintGolden pins the exact lint findings (severity, component,
// message) for every lint fixture against testdata/fixtures.golden.
func TestLintGolden(t *testing.T) {
	var b strings.Builder
	for _, fx := range fixtures.Lint() {
		fmt.Fprintf(&b, "== %s\n", fx.Name)
		fs := sanalyze.Lint(fx.Build().Structure())
		if len(fs) == 0 {
			b.WriteString("clean\n")
		}
		for _, f := range fs {
			fmt.Fprintf(&b, "%s\n", f)
		}
		b.WriteString("\n")
	}
	got := b.String()

	path := filepath.Join("testdata", "fixtures.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings drifted from golden file; run go test ./internal/sanalyze -run TestLintGolden -update\n--- got ---\n%s", got)
	}
}

// TestShippedSystemModelsLintClean verifies Lint reports zero findings
// on the real composed virtualization-system models the framework ships
// — the paper's Figure 8 setup and a spinlock variant.
func TestShippedSystemModelsLintClean(t *testing.T) {
	configs := map[string]core.SystemConfig{
		"fig8": {
			PCPUs:     2,
			Timeslice: 30,
			VMs: []core.VMConfig{
				{Name: "VM1", VCPUs: 2, Workload: workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5}},
				{Name: "VM2", VCPUs: 1, Workload: workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5}},
				{Name: "VM3", VCPUs: 1, Workload: workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5}},
			},
		},
		"spinlock": {
			PCPUs:     2,
			Timeslice: 30,
			VMs: []core.VMConfig{
				{Name: "VM1", VCPUs: 2, Workload: workload.Spec{
					Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5,
					SyncKind: workload.SyncSpinlock}},
			},
		},
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			factory, err := sched.Factory("RRS", sched.Params{Timeslice: 30})
			if err != nil {
				t.Fatal(err)
			}
			sys, err := core.BuildSystem(cfg, factory(), rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			fs := sanalyze.Lint(sys.Model().Structure())
			if len(fs) != 0 {
				t.Errorf("shipped model %q has %d findings:\n%s",
					name, len(fs), renderFindings(fs))
			}
		})
	}
}

// TestLintDeterministic verifies two lint runs over the same model
// produce byte-identical output (the verifier is part of the
// reproducibility contract).
func TestLintDeterministic(t *testing.T) {
	for _, fx := range fixtures.Lint() {
		a := renderFindings(sanalyze.Lint(fx.Build().Structure()))
		b := renderFindings(sanalyze.Lint(fx.Build().Structure()))
		if a != b {
			t.Fatalf("fixture %s: non-deterministic findings:\n%s\nvs\n%s", fx.Name, a, b)
		}
	}
}

// TestSeverityString covers the severity names used in reports.
func TestSeverityString(t *testing.T) {
	cases := map[sanalyze.Severity]string{
		sanalyze.Info:        "info",
		sanalyze.Warning:     "warning",
		sanalyze.Error:       "error",
		sanalyze.Severity(9): "Severity(9)",
	}
	for sev, want := range cases {
		if got := sev.String(); got != want {
			t.Errorf("Severity(%d).String() = %q, want %q", int(sev), got, want)
		}
	}
}

func renderFindings(fs []sanalyze.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}
