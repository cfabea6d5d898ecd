package main

import (
	"reflect"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/sched"
	"vcpusim/internal/stats"
)

// The fleet generator is a pure function of the variant and always
// yields a topology the cluster package accepts, about a thousand hosts
// strong.
func TestFleetTopologyDeterministicAndValid(t *testing.T) {
	for v := 0; v < variants; v++ {
		a, err := fleetTopology(v)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		b, err := fleetTopology(v)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("variant %d: two generations differ", v)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("variant %d: Validate: %v", v, err)
		}
		if n := a.NumHosts(); n != fleetHosts {
			t.Errorf("variant %d: %d hosts, want %d", v, n, fleetHosts)
		}
		if a.Migration == nil || len(a.Arrivals) != 2 {
			t.Errorf("variant %d: want migration armed and two arrival waves", v)
		}
	}
	a, _ := fleetTopology(0)
	b, _ := fleetTopology(1)
	if reflect.DeepEqual(a.Hosts, b.Hosts) && reflect.DeepEqual(a.Arrivals, b.Arrivals) {
		t.Error("variants 0 and 1 generate the same fleet")
	}
}

// The dense host fills the VCPU-scheduler model's slots exactly and no
// further.
func TestDenseConfigWithinSlots(t *testing.T) {
	for v := 0; v < variants; v++ {
		cfg, err := denseConfig(v)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		if n := cfg.TotalVCPUs(); n > core.MaxVCPUSlots || n != 16 {
			t.Errorf("variant %d: %d VCPUs, want 16 within the %d slots", v, n, core.MaxVCPUSlots)
		}
		if cfg.PCPUs != densePCPUs || cfg.Faults == nil || len(cfg.Faults.Faults) != 2 {
			t.Errorf("variant %d: want %d PCPUs and a two-spec fault plan", v, densePCPUs)
		}
	}
}

// Self time is a span's duration minus its direct children's, and the
// layer split of a replication subtree adds up to the replication time.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Cause: -1, Name: spanCell, Dur: 1000},
		{ID: 1, Parent: -1, Cause: 0, Name: spanRep, Dur: 500},
		{ID: 2, Parent: 1, Cause: -1, Name: spanLoop, Dur: 400},
		{ID: 3, Parent: 2, Cause: -1, Name: spanGate, Dur: 150, N: 10},
		{ID: 4, Parent: 3, Cause: -1, Name: spanSchedule + "/RCS", Dur: 100, N: 10},
		{ID: 5, Parent: -1, Cause: 0, Name: spanRep, Dur: 300},
		{ID: 6, Parent: 5, Cause: -1, Name: spanLoop, Dur: 250},
		{ID: 7, Parent: 6, Cause: -1, Name: spanGate, Dur: 50, N: 4},
		{ID: 8, Parent: 7, Cause: -1, Name: spanSchedule + "/RRS", Dur: 20, N: 4},
	}
	self := selfByName(spans)
	want := map[string]int64{
		spanCell:              1000, // replications are caused by, not nested in, the cell
		spanRep:               100 + 50,
		spanLoop:              250 + 200,
		spanGate:              50 + 30,
		spanSchedule + "/RCS": 100,
		spanSchedule + "/RRS": 20,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfByName = %v, want %v", self, want)
	}
	lt, err := splitLayers(spans)
	if err != nil {
		t.Fatal(err)
	}
	if lt.rep != 800 || lt.armCollect != 150 || lt.sanExec != 450 || lt.coreStep != 80 {
		t.Errorf("split = %+v", lt)
	}
	if lt.sched["RCS"] != 100 || lt.schedCalls["RCS"] != 10 || lt.sched["RRS"] != 20 || lt.schedCalls["RRS"] != 4 {
		t.Errorf("scheduler split = %v calls %v", lt.sched, lt.schedCalls)
	}

	// A span nested in a replication under a name the split does not
	// know loses time from the sum, which splitLayers reports.
	bad := append(append([]Span(nil), spans...), Span{ID: 9, Parent: 2, Cause: -1, Name: "mystery", Dur: 10})
	if _, err := splitLayers(bad); err == nil {
		t.Error("splitLayers accepted a replication subtree with an unattributed span")
	}
}

// The digest depends on the values bit for bit and not on map order.
func TestDigestCanonical(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 0.1, "z": -3}
	b := map[string]float64{"z": -3, "y": 0.1, "x": 1}
	var da, db, dc digester
	da.metrics("m", a)
	db.metrics("m", b)
	c := map[string]float64{"x": 1, "y": 0.30000000000000004 - 0.2, "z": -3}
	dc.metrics("m", c)
	if da.sum() != db.sum() {
		t.Error("digest depends on map insertion order")
	}
	if da.sum() == dc.sum() {
		t.Error("digest missed a one-ulp difference")
	}
	var di, dj digester
	di.interval("cell", stats.Interval{Mean: 0.5, HalfWidth: 0.01, Level: 0.95, N: 10})
	dj.interval("cell", stats.Interval{Mean: 0.5, HalfWidth: 0.01, Level: 0.95, N: 11})
	if di.sum() == dj.sum() {
		t.Error("digest ignores the replication count")
	}
}

// Rerunning the same replications on freshly built models reproduces the
// digest.
func TestDigestStableAcrossReruns(t *testing.T) {
	cfg, err := denseConfig(3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sched.Factory("RCS", sched.Params{Timeslice: timeslice})
	if err != nil {
		t.Fatal(err)
	}
	digest := func() string {
		w, err := core.NewWorker(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		var d digester
		for seed := uint64(1); seed <= 3; seed++ {
			m, err := w.Run(500, seed)
			if err != nil {
				t.Fatal(err)
			}
			d.metrics("rep", m)
		}
		return d.sum()
	}
	if a, b := digest(), digest(); a != b {
		t.Errorf("digests differ across reruns: %s vs %s", a, b)
	}
}

// The grids are the paper's 57 cells, and every variant has a recorded
// reference digest.
func TestPaperCellsAndRefs(t *testing.T) {
	if n := len(paperCells()); n != 57 {
		t.Errorf("%d paper cells, want 57", n)
	}
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for par := 1; par <= maxPar; par++ {
			if k := refKey(w.name, par); len(refs[k]) != variants {
				t.Errorf("%s: %d reference digests, want %d", k, len(refs[k]), variants)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{7}, 7}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}
