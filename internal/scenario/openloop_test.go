package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"netmem/internal/workload"
)

// smallOpenLoop is the test-sized config: enough arrivals for the
// statistics, small enough to run in milliseconds of wall time.
func smallOpenLoop(shape workload.Shape, theta float64) workload.OpenLoopConfig {
	return workload.OpenLoopConfig{
		Clients:       10_000,
		RatePerClient: 0.2,
		Window:        500 * time.Millisecond,
		Shape:         shape,
		ZipfTheta:     theta,
		Shards:        2,
		Replicas:      0,
		Lanes:         4,
		Seed:          7,
	}
}

// TestOpenLoopDeterministic: two identical small end-to-end runs produce
// byte-identical reports — the property the CI golden diff depends on.
func TestOpenLoopDeterministic(t *testing.T) {
	run := func() []byte {
		res, err := RunOpenLoop(smallOpenLoop(workload.ShapeSteady, 0.9))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if res.Offered == 0 || res.Report.Total.Ops == 0 {
			t.Fatalf("degenerate run: %s", b)
		}
		return b
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("identical configs diverged:\n%s\n%s", a, b)
	}
}

// TestOpenLoopBackpressure: starving the lane pool under the same offered
// load must shed arrivals at the bounded FIFO and inflate tail latency —
// the backpressure accounting the engine exists to surface.
func TestOpenLoopBackpressure(t *testing.T) {
	cfg := smallOpenLoop(workload.ShapeFlash, 0.9)
	cfg.Lanes = 1
	cfg.MaxQueue = 32
	cfg.StragglerPerMille = 20
	res, err := RunOpenLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Errorf("1-lane flash crowd with a 32-deep FIFO shed nothing (offered %d, peak queue %d)",
			res.Offered, res.PeakQueue)
	}
	if res.Report.Total.Shed != res.Shed {
		t.Errorf("shed mismatch: result %d, report %d", res.Shed, res.Report.Total.Shed)
	}
	// The same starved pool behind a deep FIFO: nothing sheds, so the
	// backlog turns into queueing delay instead — deeper queue, fatter
	// tail. Shedding trades completed ops for a bounded tail.
	deep := cfg
	deep.MaxQueue = 1 << 20
	dres, err := RunOpenLoop(deep)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Shed != 0 {
		t.Errorf("unbounded FIFO shed %d arrivals", dres.Shed)
	}
	if dres.PeakQueue <= res.PeakQueue {
		t.Errorf("deep FIFO peaked at %d, not above the bounded %d", dres.PeakQueue, res.PeakQueue)
	}
	if dres.Report.Total.P99Ms <= res.Report.Total.P99Ms {
		t.Errorf("deep FIFO p99 %.2fms not above shedding p99 %.2fms",
			dres.Report.Total.P99Ms, res.Report.Total.P99Ms)
	}
}

// TestOpenLoopStragglers: straggler injection shows up in the count and
// the sum of op latencies.
func TestOpenLoopStragglers(t *testing.T) {
	cfg := smallOpenLoop(workload.ShapeSteady, 0)
	cfg.StragglerPerMille = 50
	res, err := RunOpenLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stragglers == 0 {
		t.Fatalf("50‰ straggler rate injected none over %d ops", res.Offered)
	}
}

// TestOpenLoopManyLanes: setup time grows with the lane count (each
// shard's token mesh is quadratic in the lanes), so its runaway bound
// follows the topology. The 32-lane smoke point sets up for about two
// seconds of virtual time and must still run to the end, every arrival
// accounted. (Lanes on node ids at or past tokens.MaxRWNodes fail their
// token operations; those failures are counted, not checked, here.)
func TestOpenLoopManyLanes(t *testing.T) {
	cfg := SmokeConfig(workload.ShapeSteady, 1, nil)
	cfg.Lanes = 32
	res, err := RunOpenLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Report.Total
	if res.Lanes != 32 || res.Offered == 0 || tot.Ops+tot.Failed+tot.Shed != res.Offered {
		t.Fatalf("32-lane point: lanes=%d offered=%d ops=%d failed=%d shed=%d",
			res.Lanes, res.Offered, tot.Ops, tot.Failed, tot.Shed)
	}
}

// TestRunSLOSweepSmall: a two-cell sweep fills its header from the sweep
// config and measures one point per (shape, theta) cell, in grid order.
func TestRunSLOSweepSmall(t *testing.T) {
	doc, err := RunSLOSweep(workload.SLOSweepConfig{
		Clients: 10_000, RatePerClient: 0.2, Window: 200 * time.Millisecond,
		Shapes: []workload.Shape{workload.ShapeSteady}, Thetas: []float64{0, 0.9},
		Shards: 2, Replicas: -1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != workload.BenchSLOSchema || doc.Seed != 3 || doc.Clients != 10_000 ||
		doc.Shards != 2 || doc.Replicas != 0 || doc.WindowMs != 200 || len(doc.Points) != 2 {
		t.Fatalf("sweep header: %+v", doc)
	}
	for i, theta := range []float64{0, 0.9} {
		pt := doc.Points[i]
		if pt.Shape != "steady" || pt.ZipfTheta != theta || pt.Offered == 0 || pt.Report.Total.Failed != 0 {
			t.Errorf("point %d: shape %s theta %v offered %d failed %d",
				i, pt.Shape, pt.ZipfTheta, pt.Offered, pt.Report.Total.Failed)
		}
	}
}
