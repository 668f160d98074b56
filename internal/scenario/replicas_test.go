package scenario

import "testing"

// TestTokenRereadProbe exercises the fsbench-facing probe: it must report a
// free re-read (zero server CPU, zero remote reads, nonzero token hits).
func TestTokenRereadProbe(t *testing.T) {
	res, err := TokenRereadProbe(3)
	if err != nil {
		t.Fatalf("TokenRereadProbe: %v", err)
	}
	if res.Shards != 3 || res.Bytes == 0 {
		t.Errorf("unexpected probe shape: %+v", res)
	}
	if res.TokenHits == 0 || res.ServerCPU != 0 || res.RemoteReads != 0 {
		t.Errorf("probe not free: %+v", res)
	}
}

// TestReplicaRereadProbe is the replica tier's zero-CPU wall: a re-read
// served by chain members must cost the primary nothing — no client,
// control, or procedure CPU, and no one-sided operations on any of its
// exported segments.
func TestReplicaRereadProbe(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		res, err := ReplicaRereadProbe(k)
		if err != nil {
			t.Fatalf("replicas=%d: %v (reads=%d cpu=%v ops=%d)",
				k, err, res.ReplicaReads, res.PrimaryCPU, res.PrimaryRemoteOps)
		}
		if res.ReplicaReads < 2 {
			t.Fatalf("replicas=%d: expected >=2 replica block reads, got %d", k, res.ReplicaReads)
		}
	}
}

// TestReplicaReadScaling is the replica tier's acceptance gate in miniature: the
// 1→4 replica sweep with a fixed 8-reader fleet must show hot-block read
// goodput at least 3× the single-member point, while the primary's
// request-serving CPU stays flat within 5% — the reader fleet's extra
// bandwidth comes from the chain members' switch ports, not from the
// primary doing more work.
func TestReplicaReadScaling(t *testing.T) {
	pts, err := ReplicaSweep(4, 8)
	if err != nil {
		t.Fatalf("ReplicaSweep: %v", err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d sweep points, want 4", len(pts))
	}
	for _, pt := range pts {
		t.Logf("replicas=%d goodput=%.2f MB/s replica-reads=%d fallbacks=%d primaryCPU=%v (occ %.4f) pushCPU=%v wops=%d",
			pt.Replicas, pt.GoodputMBs, pt.ReplicaReads, pt.ReplicaFallbacks,
			pt.PrimaryCPU, pt.Occupancy, pt.ReplicationCPU, pt.WriterOps)
		if pt.ReplicaReads == 0 {
			t.Errorf("replicas=%d: no reads served by the chain", pt.Replicas)
		}
		if pt.WriterOps != pts[0].WriterOps {
			t.Errorf("replicas=%d: writer load drifted (%d ops vs %d) — the CPU comparison is void",
				pt.Replicas, pt.WriterOps, pts[0].WriterOps)
		}
	}
	if ratio := pts[3].GoodputMBs / pts[0].GoodputMBs; ratio < 3 {
		t.Errorf("goodput at 4 replicas only %.2fx the 1-replica point, want >= 3x", ratio)
	}
	// The primary's serving CPU must not ride the reader fleet's goodput:
	// every point stays within 5% of the 1-replica point.
	base := float64(pts[0].PrimaryCPU)
	for _, pt := range pts[1:] {
		drift := (float64(pt.PrimaryCPU) - base) / base
		if drift < 0 {
			drift = -drift
		}
		if drift > 0.05 {
			t.Errorf("replicas=%d: primary serving CPU %v drifted %.1f%% from baseline %v, want <= 5%%",
				pt.Replicas, pt.PrimaryCPU, drift*100, pts[0].PrimaryCPU)
		}
	}
}
