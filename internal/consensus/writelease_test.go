package consensus

import (
	"testing"
	"time"

	"netmem/internal/des"
)

// TestWriteLeaseFenceAndDepose walks one lease through the three states a
// partition can leave it in: valid while its fence-table word is clean,
// denied once a fence decree commits against its node, and deposed for
// good once the node is unfenced again behind its back.
func TestWriteLeaseFenceAndDepose(t *testing.T) {
	const ttl, refresh = time.Millisecond, 250 * time.Microsecond
	r := newRig(t, 1, 3, 2, Config{})
	done := false
	r.env.Spawn("lease", func(p *des.Proc) {
		defer func() { done = true }()
		r.await(p)
		cp := NewControlPlane(p, r.g, nil)
		if _, err := NewWriteLease(p, r.mgrs[3], 3, cp, ttl, refresh); err == nil {
			t.Error("lease granted without a fence table")
		}
		cp.EnableFenceTable(p, 5)
		if err := cp.Start(p); err != nil {
			t.Error(err)
			return
		}
		if _, err := NewWriteLease(p, r.mgrs[3], 5, cp, ttl, refresh); err == nil {
			t.Error("lease granted for a node outside the fence table")
		}
		wl, err := NewWriteLease(p, r.mgrs[3], 3, cp, ttl, refresh)
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(5 * ttl)
		if !wl.Allow(p) {
			t.Error("clean lease refused a write")
		}

		cli := cp.NewClient(p, r.mgrs[4])
		if err := cli.ProposeFence(p, 3); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(5 * ttl)
		if wl.Allow(p) || wl.Deposed() {
			t.Errorf("fenced lease: allow=%v deposed=%v, want denied but not deposed", wl.Allow(p), wl.Deposed())
		}
		if _, err := NewWriteLease(p, r.mgrs[3], 3, cp, ttl, refresh); err == nil {
			t.Error("fresh lease granted to a fenced node")
		}

		if err := cli.ProposeUnfence(p, 3); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(5 * ttl)
		if !wl.Deposed() || wl.Allow(p) {
			t.Errorf("unfenced-behind-its-back lease: deposed=%v, want deposed and denied", wl.Deposed())
		}
		if wl.Denials == 0 {
			t.Error("no denials counted")
		}
	})
	if err := r.env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("lease process never finished")
	}
}
