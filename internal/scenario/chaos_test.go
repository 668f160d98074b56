package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"netmem/internal/dfs"
	"netmem/internal/faults"
)

// campaign looks up a registered campaign or fails the test.
func campaign(t *testing.T, name string) faults.Campaign {
	t.Helper()
	camp, ok := faults.Named(name)
	if !ok {
		t.Fatalf("%s campaign not registered", name)
	}
	return camp
}

// runTwice runs cfg twice in one process and fails unless the two results
// are byte-identical: the JSON covers the structured result (including
// the metric snapshot and evidence), the String() rendering covers the
// snapshot's formatted table output used by reports. Any scheduler-order
// or map-iteration nondeterminism in the hot path shows up as a diff.
func runTwice(t *testing.T, cfg Config) *Result {
	t.Helper()
	runOnce := func() ([]byte, *Result) {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return append(js, res.Metrics.String()...), res
	}
	b1, r1 := runOnce()
	b2, _ := runOnce()
	if !bytes.Equal(b1, b2) {
		d1, d2 := diffLine(b1, b2)
		t.Fatalf("%s campaign on the %s rig not deterministic at seed %d:\n run1: …%s…\n run2: …%s…",
			cfg.Campaign.Name, cfg.Topology, cfg.Seed, d1, d2)
	}
	return r1
}

// diffLine returns a context window around the first differing byte.
func diffLine(a, b []byte) (string, string) {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(i-40, 0)
	win := func(s []byte) string {
		if lo > len(s) {
			return ""
		}
		return string(s[lo:min(i+40, len(s))])
	}
	return win(a), win(b)
}

// wantAllOK fails unless all twelve ops completed byte-correct.
func wantAllOK(t *testing.T, res *Result) {
	t.Helper()
	if res.Completed == len(res.Ops) && len(res.Ops) == 12 {
		return
	}
	for _, op := range res.Ops {
		if !op.OK {
			t.Errorf("op %s failed: %s", op.Label, op.Err)
		}
	}
	t.Errorf("goodput %d/%d, want 12/12", res.Completed, len(res.Ops))
}

// TestChaosMixedDeterministic is the determinism golden test: the mixed
// campaign (loss + corruption + duplication + reordering + a primary crash
// with failover) run twice at seed 1 in the same process must produce
// byte-identical results — every per-op latency, every metric counter and
// histogram in the obs snapshot, the fault tally, and the failover MTTR.
func TestChaosMixedDeterministic(t *testing.T) {
	r := runTwice(t, Config{Campaign: campaign(t, "mixed"), Seed: 1, Mode: dfs.DX})
	// The smoke's goodput gate rides along: all twelve ops must complete
	// byte-correct, and the crash schedule must actually have failed over.
	wantAllOK(t, r)
	if !r.FailedOver || r.MTTR <= 0 {
		t.Errorf("expected a measured failover (FailedOver=%v MTTR=%v)", r.FailedOver, r.MTTR)
	}
}

// TestChaosCrashFailover: under the crash campaign the full Figure 2 mix
// completes byte-correct through a failover, with a finite MTTR that
// replays identically for the seed.
func TestChaosCrashFailover(t *testing.T) {
	res := runTwice(t, Config{Campaign: campaign(t, "crash"), Seed: 1, Mode: dfs.DX})
	wantAllOK(t, res)
	if !res.FailedOver {
		t.Fatal("crash campaign ran without a failover")
	}
	if res.MTTR <= 0 || res.MTTR > 50*time.Millisecond {
		t.Fatalf("MTTR = %v, want finite positive under 50ms", res.MTTR)
	}
	if res.Rebinds != 2 {
		t.Fatalf("Rebinds = %d, want 2 (takeover + rebind)", res.Rebinds)
	}
	if a := res.Availability(); a <= 0 || a >= 1 {
		t.Fatalf("Availability = %v, want in (0,1)", a)
	}
}

// TestShardedChaosMixedDeterministic is the sharded determinism golden:
// the mixed campaign, with the crash taking out shard 0's node and its
// fenced standby taking over, run twice at seed 1 against a 3-shard tier.
func TestShardedChaosMixedDeterministic(t *testing.T) {
	r := runTwice(t, Config{Topology: Sharded, Campaign: campaign(t, "mixed"), Seed: 1, Mode: dfs.DX, Shards: 3})
	wantAllOK(t, r)
	if !r.FailedOver || r.MTTR <= 0 {
		t.Errorf("expected a measured failover (FailedOver=%v MTTR=%v)", r.FailedOver, r.MTTR)
	}
	if r.Shards == nil || r.Shards.Count != 3 {
		t.Errorf("result records shard evidence %+v, want 3 shards", r.Shards)
	}
}

// TestJoincrashDeterministic is the joiner-death golden: the joincrash
// campaign crashes the joining shard's node mid-cutover, AddShard's
// pre-commit liveness probe fails, and the cutover aborts — the ring
// never hands ownership to the corpse, parked operations resume against
// the old membership, and the Figure 2 mix completes 12/12 with a clean
// divergence audit. Two runs at seed 1 must be byte-identical.
func TestJoincrashDeterministic(t *testing.T) {
	r := runTwice(t, Config{Topology: Sharded, Campaign: campaign(t, "joincrash"), Seed: 1, Mode: dfs.DX, Shards: 3})
	sh := r.Shards
	if !sh.JoinAttempted {
		t.Errorf("mid-campaign AddShard never ran")
	}
	if !sh.JoinAborted {
		t.Errorf("AddShard committed a dead joiner; want the cutover aborted")
	}
	wantAllOK(t, r)
	if sh.Strays != 0 {
		t.Errorf("divergence audit found %d strays, want 0", sh.Strays)
	}
}

// TestReplicaLagChaosDeterministic is the replica tier's determinism
// golden: the replicalag campaign (growing per-cell delays on the deep
// chain hops, then a primary crash with no recovery) run twice at seed 1
// against a 3-member chain must complete 12/12 byte-correct and promote
// the most-advanced member — the chain head, the one node whose inbound
// link the campaign leaves clean.
func TestReplicaLagChaosDeterministic(t *testing.T) {
	r := runTwice(t, Config{Topology: Chain, Campaign: campaign(t, "replicalag"), Seed: 1, Mode: dfs.DX, Replicas: 3})
	wantAllOK(t, r)
	if !r.FailedOver || r.MTTR <= 0 {
		t.Errorf("expected a measured failover (FailedOver=%v MTTR=%v)", r.FailedOver, r.MTTR)
	}
	ch := r.Chain
	if ch.PromotedNode != 3 {
		t.Errorf("promoted node %d, want chain head 3 (applied=%d head=%d tail=%d)",
			ch.PromotedNode, ch.PromotedApplied, ch.HeadApplied, ch.TailApplied)
	}
	if ch.PromotedApplied == 0 {
		t.Errorf("promotion recorded a zero applied watermark")
	}
	if ch.ReplicaReads == 0 {
		t.Errorf("mix never read through the replica tier")
	}
	if len(r.Injected) == 0 {
		t.Errorf("campaign injected no faults")
	}
}

// TestChainUnfinishedMixReturns pins the stepped horizon's exit: under
// loss5 a one-member chain rig's mix is still replaying Readfile(8K) when
// the 3s horizon lands, and the clock then sits just short of the
// horizon. The leg must end on the horizon slice instead of re-running it
// forever, and report the unfinished mix as it stands.
func TestChainUnfinishedMixReturns(t *testing.T) {
	res, err := Run(Config{Topology: Chain, Campaign: campaign(t, "loss5"), Seed: 1, Mode: dfs.DX, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Window != 0 {
		t.Errorf("Window = %v, want 0 (the mix never finished)", res.Window)
	}
	if res.Completed != 3 {
		t.Errorf("goodput %d/%d, want 3/12", res.Completed, len(res.Ops))
	}
	if last := res.Ops[11]; last.OK || last.Err != "not reached before the horizon" {
		t.Errorf("last op %+v, want it reported as not reached", last)
	}
}

// TestLeaderCrashChaosDeterministic is the control-plane determinism
// golden: the leadercrash campaign (light dup/reorder links plus the
// lease holder's machine dying mid-mix, never to return) run twice at
// seed 1. The data plane finishes 12/12 byte-correct, exactly one
// deterministic re-election happens, the survivors' logs agree, and the
// replicated registry keeps answering without the dead machine.
func TestLeaderCrashChaosDeterministic(t *testing.T) {
	r := runTwice(t, Config{Topology: ControlPlane, Campaign: campaign(t, "leadercrash"), Seed: 1, Mode: dfs.DX})
	wantAllOK(t, r)
	c := r.Control
	if c.Elections != 1 || c.ElectionLatency <= 0 {
		t.Errorf("elections=%d latency=%v, want exactly one measured re-election", c.Elections, c.ElectionLatency)
	}
	if c.LeaderBefore != 0 || c.LeaderAfter <= 0 {
		t.Errorf("leadership did not move off the crashed machine: before=%d after=%d", c.LeaderBefore, c.LeaderAfter)
	}
	if !c.LogsAgree {
		t.Error("surviving replica logs diverged")
	}
	if !c.RegistryOK {
		t.Error("replicated registry did not converge on the survivors")
	}
	if c.DriverCommits == 0 || c.Decrees <= c.DriverCommits {
		t.Errorf("decree stream thin: applied=%d driver commits=%d", c.Decrees, c.DriverCommits)
	}
	if c.DecreesPerSec <= 0 || c.SteadyPerSec <= 0 {
		t.Errorf("no decree rates measured: campaign %v, fault-free %v", c.DecreesPerSec, c.SteadyPerSec)
	}
}

// TestSplitBrainOneWriter is the quorum-fenced failover golden: the
// splitbrain campaign partitions a healthy primary away from the
// replicas, standby, and clerk. The watchdog's (wrong) verdict must not
// promote the standby by itself — the takeover runs only after the fence
// decree commits on the replica quorum, by which point the old primary's
// write lease has lapsed and its Sync daemon is refusing to apply
// anything. Exactly one writer survives, every op byte-verifies, and two
// runs at seed 1 are byte-identical.
func TestSplitBrainOneWriter(t *testing.T) {
	r := runTwice(t, Config{Topology: SplitBrain, Campaign: campaign(t, "splitbrain"), Seed: 1, Mode: dfs.DX})
	f := r.Fencing
	if f.Aborted {
		t.Fatalf("fence decree did not commit; failover aborted")
	}
	wantAllOK(t, r)
	if !f.OneWriter() {
		t.Errorf("one-writer audit failed: frozen=%v newOK=%v denials=%d",
			f.OldSyncFrozen, f.NewWriterOK, f.Denials)
	}
	if !f.OldDeposed {
		t.Errorf("old primary's lease recovered after the heal; want deposed for good")
	}
	if f.FenceLatency <= 0 {
		t.Errorf("fence latency %v, want > 0 (decree must commit before takeover)", f.FenceLatency)
	}
	if r.MTTR <= f.FenceLatency {
		t.Errorf("MTTR %v not after fence commit %v; takeover ran before the decree", r.MTTR, f.FenceLatency)
	}
	if r.Retries == 0 {
		t.Errorf("no reliable retransmissions; the partition never bit the mix")
	}
	if r.Window <= 100*time.Millisecond {
		t.Errorf("mix window %v; ops never stalled against the partitioned primary", r.Window)
	}
}
