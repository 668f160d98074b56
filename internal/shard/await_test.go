package shard

import (
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// chainRig boots `shards` primaries on nodes 0..S-1 and `members` more
// nodes for their chains, then runs body as one process.
func chainRig(t *testing.T, shards, members int, body func(p *des.Proc, svc *Service, cl *cluster.Cluster, mgrs []*rmem.Manager)) {
	t.Helper()
	env := des.NewEnv()
	n := shards + members
	cl := cluster.New(env, &model.Default, n)
	mgrs := make([]*rmem.Manager, n)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(cl.Nodes[i])
	}
	done := false
	env.Spawn("test", func(p *des.Proc) {
		svc := NewService(p, mgrs[:shards], n, dfs.Geometry{})
		for i := 0; i < 4; i++ {
			h, err := svc.Store.WriteFile("/export/f"+string(rune('a'+i)), patterned(8192, byte(i)))
			if err == nil {
				err = svc.WarmFile(h)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
		body(p, svc, cl, mgrs)
		done = true
	})
	if err := env.RunSteps(10*time.Millisecond, des.Time(10*time.Second), func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test process did not finish")
	}
}

// TestAwaitChainsConverges: with no chain attached the wait returns at
// once; with a chain under every shard it returns true on a whole
// millisecond once each chain's members agree on a nonzero applied
// watermark, and not before (a fresh chain has applied nothing).
func TestAwaitChainsConverges(t *testing.T) {
	chainRig(t, 2, 4, func(p *des.Proc, svc *Service, _ *cluster.Cluster, mgrs []*rmem.Manager) {
		t0 := p.Now()
		if !svc.AwaitChains(p) || p.Now() != t0 {
			t.Fatalf("no chain attached: waited %v", p.Now().Sub(t0))
		}
		for slot := 0; slot < 2; slot++ {
			if err := svc.AttachReplicas(p, slot, mgrs[2+2*slot:4+2*slot], 100*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		if svc.chainsAgree() {
			t.Fatal("a fresh chain already agrees")
		}
		t1 := p.Now()
		if !svc.AwaitChains(p) {
			t.Fatal("healthy chains did not converge")
		}
		waited := time.Duration(p.Now().Sub(t1))
		if waited <= 0 || waited%time.Millisecond != 0 || waited > chainSettle*time.Millisecond {
			t.Fatalf("waited %v, want whole milliseconds within the bound", waited)
		}
		for slot := 0; slot < 2; slot++ {
			rs := svc.Replicas(slot)
			if len(rs) != 2 || rs[0].Applied() == 0 || rs[0].Applied() != rs[1].Applied() {
				t.Fatalf("slot %d members disagree after the wait", slot)
			}
		}
	})
}

// TestAwaitChainsBounded: a chain member that never applies anything
// (its machine is down) keeps the chain from agreeing, and the wait gives
// up after exactly chainSettle polls.
func TestAwaitChainsBounded(t *testing.T) {
	chainRig(t, 1, 2, func(p *des.Proc, svc *Service, cl *cluster.Cluster, mgrs []*rmem.Manager) {
		if err := svc.AttachReplicas(p, 0, mgrs[1:], 100*time.Microsecond); err != nil {
			t.Fatal(err)
		}
		cl.Nodes[2].Fail()
		t0 := p.Now()
		if svc.AwaitChains(p) {
			t.Fatal("a chain with a dead member converged")
		}
		if waited := time.Duration(p.Now().Sub(t0)); waited != chainSettle*time.Millisecond {
			t.Fatalf("gave up after %v, want %v", waited, chainSettle*time.Millisecond)
		}
	})
}
