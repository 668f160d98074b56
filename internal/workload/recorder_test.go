package workload

import (
	"errors"
	"math"
	"testing"
	"time"

	"netmem/internal/des"
	"netmem/internal/fstore"
)

// TestRecorderReport checks the accounting every run reports through:
// per-tenant counts, attainment over *offered* ops (completed + failed +
// shed), goodput over the window, exact means, the merged total, and
// Jain's fairness over the active tenants.
func TestRecorderReport(t *testing.T) {
	r := NewRecorder(
		SLOClass{Name: "tight", Deadline: 2 * time.Millisecond},
		SLOClass{Name: "loose", Deadline: 10 * time.Millisecond},
		SLOClass{Name: "idle", Deadline: time.Millisecond},
	)
	// tight: 1ms and 3ms completions (one in SLO), a failure, a shed.
	r.Record(0, time.Millisecond, nil)
	r.Record(0, 3*time.Millisecond, nil)
	r.Record(0, 0, errors.New("boom"))
	r.RecordShed(0)
	// loose: two in-SLO completions.
	r.Record(1, 4*time.Millisecond, nil)
	r.Record(1, 6*time.Millisecond, nil)
	// An out-of-range tenant lands on slot 0.
	r.RecordShed(7)

	rep := r.Report(2 * time.Second)
	if rep.WindowMs != 2000 || len(rep.Tenants) != 3 {
		t.Fatalf("window %v, %d tenant rows", rep.WindowMs, len(rep.Tenants))
	}
	tight, loose, idle := rep.Tenants[0], rep.Tenants[1], rep.Tenants[2]
	if tight.Tenant != "tight" || tight.DeadlineMs != 2 || tight.Ops != 2 || tight.Failed != 1 || tight.Shed != 2 {
		t.Errorf("tight row %+v", tight)
	}
	if tight.Attainment != 1.0/5 || tight.MeanMs != 2 || tight.GoodputOps != 0.5 {
		t.Errorf("tight attainment %v mean %v goodput %v, want 0.2, 2, 0.5",
			tight.Attainment, tight.MeanMs, tight.GoodputOps)
	}
	// Quantiles are sketch estimates: within 1/256 of the exact value, and
	// the top one clamps to the exact maximum.
	if loose.Attainment != 1 || math.Abs(loose.P50Ms-4) > 4.0/256 || loose.P99Ms != 6 || loose.GoodputOps != 1 {
		t.Errorf("loose row %+v", loose)
	}
	if idle.Ops != 0 || idle.Attainment != 0 || idle.MeanMs != 0 {
		t.Errorf("idle row %+v", idle)
	}
	tot := rep.Total
	if tot.Tenant != "total" || tot.Ops != 4 || tot.Failed != 1 || tot.Shed != 2 {
		t.Errorf("total row %+v", tot)
	}
	if tot.Attainment != 3.0/7 || tot.MeanMs != 3.5 || tot.P99Ms != 6 {
		t.Errorf("total attainment %v mean %v p99 %v, want 3/7, 3.5, 6", tot.Attainment, tot.MeanMs, tot.P99Ms)
	}
	// Jain's index over the two active tenants (0.2 and 1.0); the idle
	// tenant does not count.
	if want := 1.2 * 1.2 / (2 * (0.04 + 1)); math.Abs(rep.Fairness-want) > 1e-12 {
		t.Errorf("fairness %v, want %v", rep.Fairness, want)
	}
	if r.Report(0).Tenants[0].GoodputOps != 0 {
		t.Error("a zero window must skip rates")
	}
}

// TestRecorderDefaultClass: with no classes there is one deadline-free
// tenant, so every completion is in SLO.
func TestRecorderDefaultClass(t *testing.T) {
	r := NewRecorder()
	r.Record(0, time.Hour, nil)
	rep := r.Report(time.Second)
	if len(rep.Tenants) != 1 || rep.Tenants[0].Tenant != "all" || rep.Total.Attainment != 1 || rep.Fairness != 1 {
		t.Fatalf("default class report %+v", rep)
	}
}

// nullClerk serves every FileAPI call instantly; with fail set, every
// call fails.
type nullClerk struct{ fail bool }

func (c *nullClerk) err() error {
	if c.fail {
		return errors.New("down")
	}
	return nil
}
func (c *nullClerk) FlushLocal() {}
func (c *nullClerk) GetAttr(*des.Proc, fstore.Handle) (fstore.Attr, error) {
	return fstore.Attr{}, c.err()
}
func (c *nullClerk) SetAttr(*des.Proc, fstore.Handle, uint16, int64) (fstore.Attr, error) {
	return fstore.Attr{}, c.err()
}
func (c *nullClerk) Lookup(*des.Proc, fstore.Handle, string) (fstore.Handle, fstore.Attr, error) {
	return fstore.Handle{}, fstore.Attr{}, c.err()
}
func (c *nullClerk) ReadLink(*des.Proc, fstore.Handle) (string, error) { return "", c.err() }
func (c *nullClerk) Read(*des.Proc, fstore.Handle, int64, int) ([]byte, error) {
	return nil, c.err()
}
func (c *nullClerk) Write(*des.Proc, fstore.Handle, int64, []byte) error { return c.err() }
func (c *nullClerk) ReadDir(*des.Proc, fstore.Handle, int64, int) ([]byte, error) {
	return nil, c.err()
}
func (c *nullClerk) Null(*des.Proc) error                    { return c.err() }
func (c *nullClerk) StatFS(*des.Proc) (fstore.FSStat, error) { return fstore.FSStat{}, c.err() }

// TestReplayerDoRecords: Do applies every activity and reports each
// outcome — completions and failures — into Rec under its tenant.
func TestReplayerDoRecords(t *testing.T) {
	tree := &Tree{Files: []fstore.Handle{{}}, Dirs: []fstore.Handle{{}}, Links: []fstore.Handle{{}},
		Names: [][]string{{"obj000"}}}
	rec := NewRecorder(SLOClass{Name: "a"}, SLOClass{Name: "b"})
	ok := &Replayer{Clerk: &nullClerk{}, Tree: tree, Rec: rec}
	bad := &Replayer{Clerk: &nullClerk{fail: true}, Tree: tree, Rec: rec, Tenant: 1}
	env := des.NewEnv()
	env.Spawn("replay", func(p *des.Proc) {
		for a := Activity(0); a < numActivities; a++ {
			if err := ok.Do(p, TraceOp{Activity: a, Size: 512}); err != nil {
				t.Errorf("%v: %v", a, err)
			}
			if err := bad.Do(p, TraceOp{Activity: a, Size: 512}); err == nil {
				t.Errorf("%v: failing clerk reported success", a)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Tenants[0].Ops != int64(numActivities) || rec.Tenants[1].Failed != int64(numActivities) {
		t.Fatalf("recorded %d ops for a, %d failures for b; want %d each",
			rec.Tenants[0].Ops, rec.Tenants[1].Failed, numActivities)
	}
	for a := Activity(0); a < numActivities; a++ {
		if ok.Ops[a] != 1 {
			t.Errorf("%v applied %d times", a, ok.Ops[a])
		}
	}
}
