package consensus

import (
	"bytes"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// TestCompactionOutrunsSlots is the compaction acceptance check: with a
// 64-slot window a client commits several windows' worth of decrees.
// Without compaction that dies at slot 64 with ErrLogFull; with it the
// snapshot decrees keep recycling the window. Afterwards every replica
// must hold byte-identical logs, identical checkpoints, and a digest
// that replays exactly from checkpoint + suffix.
func TestCompactionOutrunsSlots(t *testing.T) {
	const (
		slots   = 64
		commits = 200 // > 3 windows
	)
	env := des.NewEnv()
	env.Seed(1)
	c := cluster.New(env, &model.Default, 4)
	mgrs := make([]*rmem.Manager, 4)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(c.Nodes[i])
	}
	var cp *ControlPlane
	env.Spawn("boot", func(p *des.Proc) {
		g := NewGroup(p, Config{Slots: slots, Proposers: 5, Compact: true}, mgrs[:3]...)
		cp = NewControlPlane(p, g, nil)
		if err := cp.Start(p); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		cl := cp.NewClient(p, mgrs[3])
		for k := 0; k < commits; k++ {
			if err := cl.Noop(p); err != nil {
				t.Errorf("commit %d: %v", k, err)
				return
			}
		}
	})
	if err := env.RunUntil(des.Time(3 * time.Second)); err != nil {
		t.Fatalf("sim: %v", err)
	}

	r0 := cp.Replicas()[0]
	if r0.SnapBase() == 0 {
		t.Fatalf("no snapshot decree committed across %d commits in a %d-slot window", commits, slots)
	}
	if r0.AppliedCount() <= slots {
		t.Fatalf("applied %d decrees, want > Slots=%d", r0.AppliedCount(), slots)
	}

	// Replicas agree byte for byte, including where the watermark sits
	// and what the checkpoint says.
	ref := r0.Log()
	s0, e0, l0, d0 := r0.Checkpoint(nil)
	for _, r := range cp.Replicas()[1:] {
		if r.AppliedCount() != r0.AppliedCount() {
			t.Fatalf("replica %d applied %d, replica 0 applied %d", r.Idx(), r.AppliedCount(), r0.AppliedCount())
		}
		for s, cmd := range r.Log() {
			if !bytes.Equal(cmd.Encode(), ref[s].Encode()) {
				t.Fatalf("replica %d slot %d diverges", r.Idx(), s)
			}
		}
		if r.SnapBase() != r0.SnapBase() {
			t.Fatalf("replica %d snapBase %d, replica 0 %d", r.Idx(), r.SnapBase(), r0.SnapBase())
		}
		s, e, l, d := r.Checkpoint(nil)
		if s != s0 || e != e0 || l != l0 || d != d0 {
			t.Fatalf("replica %d checkpoint (%d,%d,%d,%x) differs from replica 0 (%d,%d,%d,%x)",
				r.Idx(), s, e, l, d, s0, e0, l0, d0)
		}
	}

	// The digest replays: fold the checkpoint's prefix digest over the
	// suffix (snapshot decree onward) and land exactly on the live one.
	replay := d0
	for _, cmd := range ref[s0:] {
		replay = foldDigest(replay, cmd.Encode())
	}
	if replay != r0.Digest() {
		t.Fatalf("replay digest %x != live digest %x", replay, r0.Digest())
	}

	// AuditCompaction is this audit as one call: it passes here, and it
	// catches a diverged retained decree and a digest that no longer
	// replays.
	if agree, replayOK, snaps := cp.AuditCompaction(); !agree || !replayOK || snaps == 0 {
		t.Fatalf("audit: agree=%v replayOK=%v snapshots=%d", agree, replayOK, snaps)
	}
	r1 := cp.Replicas()[1]
	last := len(r1.log) - 1
	saved := r1.log[last]
	r1.log[last].Seq++
	if agree, _, _ := cp.AuditCompaction(); agree {
		t.Error("audit missed a diverged decree")
	}
	r1.log[last] = saved
	r0.digest ^= 1
	if _, replayOK, _ := cp.AuditCompaction(); replayOK {
		t.Error("audit replayed to a corrupted digest")
	}
	r0.digest ^= 1
}
