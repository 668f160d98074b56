package shard

import (
	"bytes"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/fstore"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// TestChainFailoverPromotes: when a chain-backed shard's primary dies, the
// watcher promotes a chain member in its place — no dedicated standby —
// and the rebound clerk reads back a write the dead primary had only
// pushed down the chain.
func TestChainFailoverPromotes(t *testing.T) {
	// Topology: primary on 0, clerk on 1, watcher on 2, chain on 3 and 4.
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 5)
	var mgrs []*rmem.Manager
	for i := 0; i < 5; i++ {
		mgrs = append(mgrs, rmem.NewManager(cl.Nodes[i]))
	}
	var (
		svc       *Service
		clerk     *Clerk
		h, link   fstore.Handle
		payload   = patterned(fstore.BlockSize, 7)
		setupDone bool
	)
	env.Spawn("setup", func(p *des.Proc) {
		svc = NewService(p, mgrs[:1], 5, dfs.Geometry{}, dfs.WithReliableReplies())
		clerk = NewClerk(p, mgrs[1], svc, dfs.DX,
			WithSubOptions(dfs.WithReliable(), dfs.WithFencing()), WithTokenCache())
		var err error
		if h, err = svc.Store.WriteFile("/export/x", patterned(fstore.BlockSize, 1)); err != nil {
			t.Error(err)
			return
		}
		exp, _, _ := svc.Store.ResolvePath("/export")
		if link, _, err = svc.Store.Symlink(exp, "cur", "/export/x"); err != nil {
			t.Error(err)
			return
		}
		for _, wh := range []fstore.Handle{h, link} {
			if err := svc.WarmFile(wh); err != nil {
				t.Error(err)
				return
			}
		}
		if err := svc.AttachReplicas(p, 0, mgrs[3:], 100*time.Microsecond); err != nil {
			t.Error(err)
			return
		}
		if _, err := svc.ArmChainFailover(p, 0, mgrs[2], 100*time.Microsecond); err != nil {
			t.Error(err)
			return
		}
		// Dirty the block on the primary; the push daemon carries it down
		// the chain, but nothing applies it to the store.
		if _, err := clerk.Read(p, h, 0, fstore.BlockSize); err != nil {
			t.Error(err)
			return
		}
		if err := clerk.Write(p, h, 0, payload); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(20 * time.Millisecond)
		setupDone = true
	})
	if err := env.RunUntil(des.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !setupDone {
		t.Fatal("setup never finished")
	}
	cl.Nodes[0].Fail()
	checked := false
	env.Spawn("after", func(p *des.Proc) {
		defer func() { checked = true }()
		if err := svc.Coordinators()[0].AwaitRestored(p, time.Second); err != nil {
			t.Errorf("chain failover never completed: %v", err)
			return
		}
		if svc.PromotedNode != 3 || svc.PromotedApplied == 0 {
			t.Errorf("promoted node %d at watermark %d, want the chain head 3 with a nonzero watermark",
				svc.PromotedNode, svc.PromotedApplied)
		}
		clerk.FlushLocal()
		got, err := clerk.Read(p, h, 0, fstore.BlockSize)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("read after promotion: wrong bytes (err %v)", err)
		}
		if target, err := clerk.ReadLink(p, link); err != nil || target != "/export/x" {
			t.Errorf("readlink after promotion = %q, %v", target, err)
		}
	})
	if err := env.RunUntil(des.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("post-failover checks never ran")
	}
}

// TestAddShardAbortsOnDeadJoiner: a joiner that dies mid-cutover fails
// the pre-commit liveness probe, so AddShard rolls back — the ring keeps
// its old members and epoch, and clerks keep serving every key.
func TestAddShardAbortsOnDeadJoiner(t *testing.T) {
	r := newElasticRig(t, 2, 1, 1, 1)
	dir, _, err := r.svc.Store.ResolvePath("/")
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.svc.Store.WriteFile("/f", patterned(1024, 3))
	if err != nil {
		t.Fatal(err)
	}
	done := false
	r.run(t, func(p *des.Proc) {
		defer func() { done = true }()
		_, epoch := r.svc.Membership().Current()
		joiner := r.mgrs[2]
		r.env.After(time.Millisecond, joiner.Node.Fail)
		if _, err := r.svc.AddShard(p, joiner); err == nil {
			t.Error("AddShard committed a dead joiner")
		}
		ring, now := r.svc.Membership().Current()
		if ring.Size() != 2 || now != epoch || r.svc.Cutovers != 0 {
			t.Errorf("after abort: %d members at epoch %d (was %d), %d cutovers; want the old ring", ring.Size(), now, epoch, r.svc.Cutovers)
		}
		c := r.clerks[0]
		c.FlushLocal()
		if _, _, err := c.Lookup(p, dir, "f"); err != nil {
			t.Errorf("lookup after aborted join: %v", err)
		}
		got, err := c.Read(p, h, 0, 1024)
		if err != nil || !bytes.Equal(got, patterned(1024, 3)) {
			t.Errorf("read after aborted join: wrong bytes (err %v)", err)
		}
	})
	if !done {
		t.Fatal("test process never finished")
	}
}
