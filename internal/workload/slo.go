package workload

import (
	"fmt"
	"time"

	"netmem/internal/faults"
)

// The SLO sweep: the open-loop engine swept over arrival shape × key skew
// at a fixed client population, emitting one machine-readable document
// (BENCH_SLO.json) that later scaling changes are judged against. The
// driver that runs it is scenario.RunSLOSweep; this file holds its data.

// SLOSweepConfig parameterizes a sweep.
type SLOSweepConfig struct {
	// Clients is the simulated population per point (default 100k).
	Clients int
	// RatePerClient and Window follow OpenLoopConfig defaults when zero.
	RatePerClient float64
	Window        time.Duration
	// Shapes and Thetas span the sweep grid; empty gets all three shapes
	// × {0, 0.9, 1.2}.
	Shapes []Shape
	Thetas []float64
	// Shards/Replicas shape the serving tier (defaults 4 and 3).
	Shards   int
	Replicas int
	// StragglerPerMille injects slow clients (default 5‰).
	StragglerPerMille int
	// Seed pins the whole sweep.
	Seed int64
	// Campaign, when set, runs every point under the fault schedule.
	Campaign *faults.Campaign
}

// BenchSLOSchema identifies the BENCH_SLO.json layout.
const BenchSLOSchema = "netmem/bench_slo/v1"

// BenchSLO is the sweep document.
type BenchSLO struct {
	Schema   string            `json:"schema"`
	Seed     int64             `json:"seed"`
	Clients  int               `json:"clients"`
	Shards   int               `json:"shards"`
	Replicas int               `json:"replicas"`
	WindowMs float64           `json:"window_ms"`
	Points   []*OpenLoopResult `json:"points"`
}

// Fill applies defaults in place.
func (c *SLOSweepConfig) Fill() {
	if c.Clients <= 0 {
		c.Clients = 100_000
	}
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if len(c.Shapes) == 0 {
		c.Shapes = []Shape{ShapeSteady, ShapeDiurnal, ShapeFlash}
	}
	if len(c.Thetas) == 0 {
		c.Thetas = []float64{0, 0.9, 1.2}
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.Replicas < 0 {
		c.Replicas = 0
	}
	if c.StragglerPerMille == 0 {
		c.StragglerPerMille = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// PointConfig returns the OpenLoopConfig for one (shape, theta) grid cell.
func (c SLOSweepConfig) PointConfig(shape Shape, theta float64) OpenLoopConfig {
	c.Fill()
	cfg := OpenLoopConfig{
		Clients:           c.Clients,
		RatePerClient:     c.RatePerClient,
		Window:            c.Window,
		Shape:             shape,
		ZipfTheta:         theta,
		Shards:            c.Shards,
		Replicas:          c.Replicas,
		StragglerPerMille: c.StragglerPerMille,
		Seed:              c.Seed,
		Campaign:          c.Campaign,
	}
	cfg.Fill()
	return cfg
}

// SLOGate is one PASS/FAIL verdict over a sweep point.
type SLOGate struct {
	Point  string
	Pass   bool
	Detail string
}

// attainFloor is the minimum total SLO attainment a healthy system clears
// per shape: steady and diurnal stay inside capacity end to end, while a
// flash crowd is *designed* to overload the lanes — its floor only proves
// the system kept serving rather than collapsing.
func attainFloor(shape string) float64 {
	if shape == "flash" {
		return 0.20
	}
	return 0.90
}

// GateSLO renders verdicts for a sweep document: every point must drain
// (no failed ops without a campaign), clear its shape's attainment floor,
// and keep inter-tenant fairness above 0.80.
func GateSLO(doc *BenchSLO) []SLOGate {
	var gates []SLOGate
	for _, pt := range doc.Points {
		name := fmt.Sprintf("%s/theta=%.1f", pt.Shape, pt.ZipfTheta)
		floor := attainFloor(pt.Shape)
		switch {
		case pt.Campaign == "" && pt.Report.Total.Failed > 0:
			gates = append(gates, SLOGate{name, false,
				fmt.Sprintf("%d ops failed on a fault-free run", pt.Report.Total.Failed)})
		case pt.Report.Total.Attainment < floor:
			gates = append(gates, SLOGate{name, false,
				fmt.Sprintf("attainment %.3f below %.2f floor", pt.Report.Total.Attainment, floor)})
		case pt.Report.Fairness < 0.80:
			gates = append(gates, SLOGate{name, false,
				fmt.Sprintf("fairness %.3f below 0.80", pt.Report.Fairness)})
		default:
			gates = append(gates, SLOGate{name, true,
				fmt.Sprintf("attainment %.3f fairness %.3f", pt.Report.Total.Attainment, pt.Report.Fairness)})
		}
	}
	return gates
}
