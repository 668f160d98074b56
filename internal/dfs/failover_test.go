package dfs

import (
	"bytes"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/fstore"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// Hot-standby failover: the primary mirrors its write-behind state to a
// standby with plain remote WRITEs; on the primary's death the standby
// promotes itself over the surviving store and a rebound clerk reads the
// un-flushed write back, byte-correct — with plain transfers, and with
// the reliability layer on both ends as the chaos rigs run it.
func TestStandbyMirrorAndTakeover(t *testing.T) {
	t.Run("plain", func(t *testing.T) { testStandbyTakeover(t, nil, nil) })
	t.Run("reliable", func(t *testing.T) {
		testStandbyTakeover(t, []ServerOption{WithReliableReplies()}, []ClerkOption{WithReliable()})
	})
}

func testStandbyTakeover(t *testing.T, srvOpts []ServerOption, clerkOpts []ClerkOption) {
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 3)
	ms := rmem.NewManager(cl.Nodes[0])
	mc := rmem.NewManager(cl.Nodes[1])
	msb := rmem.NewManager(cl.Nodes[2])

	var (
		srv   *Server
		clerk *Clerk
		sb    *Standby
		h     fstore.Handle
	)
	env.Spawn("setup", func(p *des.Proc) {
		srv = NewServer(p, ms, 3, Geometry{}, srvOpts...)
		clerk = NewClerk(p, mc, srv, DX, append(clerkOpts, WithFencing())...)
		var err error
		if h, err = srv.Store.WriteFile("/export/hot", patterned(fstore.BlockSize)); err != nil {
			t.Error(err)
			return
		}
		if err := srv.WarmFile(h); err != nil {
			t.Error(err)
			return
		}
		sb = NewStandby(p, msb, srv.Geo)
		srv.AttachStandby(p, sb, 100*time.Microsecond)
	})
	if err := env.RunUntil(des.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, fstore.BlockSize)
	for i := range payload {
		payload[i] = byte(i*7 + 129) // distinct from the warm pattern
	}
	env.Spawn("test", func(p *des.Proc) {
		// Establish DX block ownership, then write — the block sits dirty
		// in the primary's cache, not yet applied to the store.
		if _, err := clerk.Read(p, h, 0, fstore.BlockSize); err != nil {
			t.Error(err)
			return
		}
		if err := clerk.Write(p, h, 0, payload); err != nil {
			t.Error(err)
			return
		}
		// An 8K mirror push costs ~2 ms end to end (per-cell drain + deposit
		// at the standby), so give the daemon a comfortable multiple.
		p.Sleep(10 * time.Millisecond)
		if srv.Mirrored == 0 {
			t.Error("dirty block never mirrored to the standby")
			return
		}
		onDisk, _ := srv.Store.Read(h, 0, fstore.BlockSize)
		if bytes.Equal(onDisk, payload) {
			t.Error("write reached the store before Sync — test premise broken")
			return
		}

		cl.Nodes[0].Fail()
		srv2, err := sb.TakeOver(p, srv.Store, 3, srvOpts...)
		if err != nil {
			t.Error(err)
			return
		}
		if sb.Restored == 0 {
			t.Error("takeover grafted no mirrored buckets")
			return
		}
		clerk.Rebind(p, srv2)
		if clerk.Rebinds != 1 {
			t.Errorf("clerk.Rebinds = %d, want 1", clerk.Rebinds)
		}

		// The grafted bucket is still flagged dirty: Sync applies the dead
		// primary's un-flushed write to the store.
		if _, err := srv2.Sync(p); err != nil {
			t.Error(err)
			return
		}
		got, err := srv2.Store.Read(h, 0, fstore.BlockSize)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("store after failover+sync: wrong bytes (err %v)", err)
			return
		}
		// And the rebound clerk reads it end to end over the new segments.
		clerk.FlushLocal()
		rb, err := clerk.Read(p, h, 0, fstore.BlockSize)
		if err != nil || !bytes.Equal(rb, payload) {
			t.Errorf("clerk read after rebind: wrong bytes (err %v)", err)
		}
	})
	if err := env.RunUntil(des.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

// Satellite: CallTimeout zero no longer means wait-forever — the bound
// defaults from the model's retry parameters, so a clerk facing a dead
// server gets a timeout after the full retry schedule instead of hanging.
func TestCallTimeoutDefaultsBounded(t *testing.T) {
	r := newRig(t, 1, DX)
	h, err := r.server.Store.WriteFile("/f", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	c := r.clerks[0]
	if c.CallTimeout != 0 {
		t.Fatalf("CallTimeout = %v, want unset", c.CallTimeout)
	}
	pp := model.Default
	want := time.Duration(pp.RetryLimit+1) * pp.RetryBackoffMax
	if got := c.callTimeout(); got != want {
		t.Fatalf("derived callTimeout = %v, want %v", got, want)
	}
	r.env.Spawn("test", func(p *des.Proc) {
		r.server.Node().Fail()
		c.FlushLocal()
		start := p.Now()
		_, err := c.GetAttr(p, h)
		elapsed := time.Duration(p.Now().Sub(start))
		if err == nil {
			t.Error("GetAttr against dead server succeeded")
		}
		if elapsed > want+time.Second {
			t.Errorf("dead-server op took %v, want ≈%v", elapsed, want)
		}
	})
	if err := r.env.RunUntil(des.Time(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
}
