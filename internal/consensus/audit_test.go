package consensus

import (
	"strings"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/model"
	"netmem/internal/nameserver"
	"netmem/internal/rmem"
)

// TestAuditSurvivors: after the leader's machine dies, the two surviving
// replicas agree on their applied log prefix and both answer the last
// registered name locally. A replica whose log is doctored fails the
// audit, and so does a control plane with no survivors.
func TestAuditSurvivors(t *testing.T) {
	env := des.NewEnv()
	env.Seed(1)
	c := cluster.New(env, &model.Default, 4)
	mgrs := make([]*rmem.Manager, 4)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(c.Nodes[i])
	}
	done := false
	env.Spawn("audit", func(p *des.Proc) {
		defer func() { done = true }()
		// Name clerks boot first: their well-known segments assume they
		// are each node's first exports.
		clerks := make([]*nameserver.Clerk, 3)
		for i := range clerks {
			clerks[i] = nameserver.New(mgrs[i], []int{0, 1, 2}, nameserver.Config{})
		}
		p.Sleep(time.Millisecond)
		g := NewGroup(p, Config{Acceptors: 3, Proposers: 4, Slots: 64}, mgrs[:3]...)
		cp := NewControlPlane(p, g, clerks)
		if err := cp.Start(p); err != nil {
			t.Error(err)
			return
		}
		cli := cp.NewClient(p, mgrs[3])
		if err := cli.RegisterName(p, nameserver.Record{Name: "svc", Node: 3, Seg: 0x2000, Gen: 1, Epoch: 1, Size: 64}); err != nil {
			t.Error(err)
			return
		}
		if cp.Leader() != 0 {
			t.Errorf("initial lease on replica %d, want 0", cp.Leader())
		}
		c.Nodes[0].Fail()
		p.Sleep(20 * time.Millisecond)
		if l := cp.Leader(); l <= 0 {
			t.Errorf("lease on replica %d after its machine died, want a survivor", l)
		}

		decrees, ok, err := cp.AuditSurvivors(p, "svc", 3)
		if err != nil || !ok || decrees < 2 {
			t.Errorf("audit after leader crash: decrees=%d registryOK=%v err=%v, want ≥2 decrees, converged", decrees, ok, err)
		}
		if _, ok, _ := cp.AuditSurvivors(p, "svc", 2); ok {
			t.Error("registry check accepted a record on the wrong node")
		}

		r := cp.Replicas()[2]
		saved := r.log[0]
		r.log[0] = Command{Kind: KindNoop, Origin: 99}
		if _, _, err := cp.AuditSurvivors(p, "svc", 3); err == nil || !strings.Contains(err.Error(), "diverges") {
			t.Errorf("doctored log passed the audit (err %v)", err)
		}
		r.log[0] = saved

		c.Nodes[1].Fail()
		c.Nodes[2].Fail()
		if _, _, err := cp.AuditSurvivors(p, "svc", 3); err == nil {
			t.Error("audit with no survivors succeeded")
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("audit process never finished")
	}
}
