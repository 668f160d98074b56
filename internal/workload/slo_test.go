package workload

import (
	"strings"
	"testing"
	"time"
)

// TestShapeNamesRoundTrip: every listed shape name parses back to a shape
// that prints as the same name; unknown names are rejected.
func TestShapeNamesRoundTrip(t *testing.T) {
	for _, name := range ShapeNames() {
		s, err := ParseShape(name)
		if err != nil || s.String() != name {
			t.Errorf("ParseShape(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := ParseShape("sawtooth"); err == nil {
		t.Error("unknown shape parsed")
	}
	if Shape(9).String() != "Shape(9)" || MixKind(9).String() != "MixKind(9)" || Activity(99).String() != "Activity(99)" {
		t.Error("out-of-range enums must print their value")
	}
	if MixMetadata.String() != "metadata" || ActWrite.String() != "Write File Data" {
		t.Error("enum names drifted")
	}
}

// TestOpenLoopConfigFill: zero fields get the documented defaults and set
// fields are kept.
func TestOpenLoopConfigFill(t *testing.T) {
	var c OpenLoopConfig
	c.Fill()
	if c.Clients != 100_000 || c.RatePerClient != 0.05 || c.Window != 2*time.Second || len(c.Tenants) != 3 ||
		c.Shards != 4 || c.Replicas != 0 || c.Lanes != 8 || c.MaxQueue != 4096 ||
		c.StragglerDelay != 2*time.Millisecond || c.Seed != 1 || c.Dirs != 4 || c.PerDir != 8 {
		t.Fatalf("defaults: %+v", c)
	}
	c = OpenLoopConfig{Lanes: 3, Replicas: -1, StragglerPerMille: -5, Seed: 9}
	c.Fill()
	if c.Lanes != 3 || c.Replicas != 0 || c.StragglerPerMille != 0 || c.Seed != 9 {
		t.Fatalf("explicit fields: %+v", c)
	}
}

// TestSLOSweepPointConfig: the sweep's defaults reach every grid point,
// and a point carries its cell's shape and skew.
func TestSLOSweepPointConfig(t *testing.T) {
	var c SLOSweepConfig
	c.Fill()
	if c.Clients != 100_000 || c.Window != time.Second || len(c.Shapes) != 3 || len(c.Thetas) != 3 ||
		c.Shards != 4 || c.Replicas != 3 || c.StragglerPerMille != 5 || c.Seed != 1 {
		t.Fatalf("sweep defaults: %+v", c)
	}
	pt := SLOSweepConfig{Replicas: -1, Seed: 4}.PointConfig(ShapeFlash, 1.2)
	if pt.Shape != ShapeFlash || pt.ZipfTheta != 1.2 || pt.Replicas != 0 || pt.Seed != 4 ||
		pt.Lanes != 8 || pt.Window != time.Second {
		t.Fatalf("point config: %+v", pt)
	}
}

// TestGateSLO: each point fails on the first broken rule — failed ops on a
// fault-free run, attainment under its shape's floor, unfair tenants —
// and passes otherwise.
func TestGateSLO(t *testing.T) {
	point := func(shape, camp string, failed int64, attain, fair float64) *OpenLoopResult {
		return &OpenLoopResult{Shape: shape, ZipfTheta: 0.9, Campaign: camp,
			Report: Report{Total: TenantReport{Failed: failed, Attainment: attain}, Fairness: fair}}
	}
	doc := &BenchSLO{Points: []*OpenLoopResult{
		point("steady", "", 0, 0.95, 0.99),     // pass
		point("steady", "", 2, 0.95, 0.99),     // failed ops, no campaign
		point("steady", "mixed", 2, 0.95, 0.9), // failures tolerated under a campaign
		point("diurnal", "", 0, 0.85, 0.99),    // below the 0.90 floor
		point("flash", "", 0, 0.25, 0.99),      // flash floor is 0.20
		point("flash", "", 0, 0.25, 0.5),       // unfair
	}}
	want := []struct {
		pass bool
		says string
	}{
		{true, "attainment 0.950"},
		{false, "2 ops failed"},
		{true, "fairness 0.900"},
		{false, "below 0.90 floor"},
		{true, "attainment 0.250"},
		{false, "fairness 0.500 below 0.80"},
	}
	gates := GateSLO(doc)
	if len(gates) != len(want) {
		t.Fatalf("%d gates for %d points", len(gates), len(want))
	}
	for i, g := range gates {
		if g.Pass != want[i].pass || !strings.Contains(g.Detail, want[i].says) {
			t.Errorf("point %d (%s): pass=%v %q, want pass=%v containing %q",
				i, g.Point, g.Pass, g.Detail, want[i].pass, want[i].says)
		}
	}
	if gates[0].Point != "steady/theta=0.9" {
		t.Errorf("point name %q", gates[0].Point)
	}
}
