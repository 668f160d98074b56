// Package scenario holds every experiment driver that boots a simulated
// cluster: one boot (environment and seed, optional tracer and fault
// campaign, the cluster, an rmem manager per node, a setup process, and a
// run to an anchor or a predicate) under drivers for
//
//   - the Figure 2 operation mix under fault campaigns, on five topologies
//     (Run);
//   - closed-loop Table 1a replay on one server or a sharded tier
//     (RunClosedLoop), and the elastic fleet sweep over it (RunElastic);
//   - open-loop scheduled arrivals and the SLO sweep (RunOpenLoop,
//     RunSLOSweep);
//   - the read-tier probes and the replica scaling sweep
//     (TokenRereadProbe, ReplicaRereadProbe, RunReplicaScale);
//   - the consensus compaction soak and CAS-contention bench
//     (RunCompaction, RunCASBench).
//
// The chaos driver runs the Figure 2 mix with the reliability layer on,
// verifying every operation end to end — not just that it returned the
// right number of bytes, but that the bytes are correct. The paper
// measures the fault-free fast path; this measures what the same structure
// costs when the network misbehaves (§3.7). It owns the mechanics every
// chaos topology shares: warming the Figure 2 tree, the byte-verified op
// runner, the anchored mix with bounded replays, the baseline-then-campaign
// legs, and the result. Each topology (single server, sharded tier,
// replica chain, consensus control plane, split-brain) is a small spec
// plus the setup and audit hooks of its rig.
package scenario

import (
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/obs"
	"netmem/internal/workload"
)

// Topology names one chaos rig.
type Topology int

const (
	// Single is one file server and one clerk. A campaign with a crash
	// schedule adds a hot standby, a heartbeat, and a recovery coordinator
	// (in both legs, so the baseline's background traffic matches).
	Single Topology = iota
	// Sharded is Config.Shards file servers behind a consistent-hash ring;
	// crash campaigns arm a fenced standby per shard. A crash aimed beyond
	// the rig spawns a joiner there mid-campaign.
	Sharded
	// Chain is one shard backed by a Config.Replicas-member replica chain,
	// read through a token-caching clerk; failover promotes the
	// most-advanced member instead of a dedicated standby.
	Chain
	// ControlPlane runs the mix on a one-server data plane while a
	// three-replica consensus control plane commits a steady decree
	// stream; campaigns kill control-plane machines, not the data plane.
	ControlPlane
	// SplitBrain is the quorum-fenced failover rig: a leased primary, its
	// fenced standby, and three control replicas. Partition campaigns
	// isolate the healthy primary; takeover waits for the fence decree.
	SplitBrain
)

var topologyNames = [...]string{"single", "sharded", "chain", "control plane", "split-brain"}

func (t Topology) String() string {
	if t < 0 || int(t) >= len(topologyNames) {
		return fmt.Sprintf("Topology(%d)", int(t))
	}
	return topologyNames[t]
}

// Config selects one chaos run.
type Config struct {
	Topology Topology
	// Campaign is the fault schedule (its Seed field, when zero, defers to
	// Seed below). Crash and partition entries name node ids; each
	// topology documents its node layout.
	Campaign faults.Campaign
	// Seed seeds the simulation environment; 0 means des.DefaultSeed.
	Seed int64
	// Mode is the file-service structure (DX for the paper's proposal).
	Mode dfs.Mode
	// Shards is the Sharded topology's shard count (>= 1).
	Shards int
	// Replicas is the Chain topology's chain length (>= 1).
	Replicas int

	// wrap, when set, interposes on the clerk the mix runs through.
	wrap func(workload.FileAPI) workload.FileAPI
}

// OpResult is one operation of the mix under chaos.
type OpResult struct {
	Label    string
	Baseline time.Duration // fault-free latency, reliability on
	Chaos    time.Duration // latency under the campaign
	OK       bool          // completed with byte-correct results
	Err      string        // failure detail when !OK
}

// Degradation is the latency multiplier the campaign imposed.
func (r OpResult) Degradation() float64 {
	if r.Baseline <= 0 {
		return 0
	}
	return float64(r.Chaos) / float64(r.Baseline)
}

// Result is one full chaos run over the Figure 2 mix. The evidence blocks
// are set only by the topologies that produce them.
type Result struct {
	Campaign  string
	Seed      int64
	Mode      dfs.Mode
	Ops       []OpResult
	Completed int          // ops that finished byte-correct
	Retries   int64        // reliable-layer retransmissions
	Giveups   int64        // operations that exhausted their retry budget
	Injected  []string     // the engine's per-kind fault tally ("loss=412", …)
	Events    uint64       // simulator events executed in the measured leg
	Sched     des.Counters // kernel scheduling-path counts of the measured leg
	// Metrics is the deterministic metric snapshot of the chaos run —
	// identical seeds produce byte-identical snapshots.
	Metrics obs.Snapshot

	// Failover measurements (zero unless a recovery coordinator restored
	// service). MTTR runs from the last heartbeat that proved the primary
	// alive to the completed failover — the longest over all coordinators;
	// Window is the mix's wall-clock, so 1−MTTR/Window is the measured
	// availability.
	FailedOver bool
	MTTR       time.Duration
	Window     time.Duration
	Rebinds    int64 // failover steps executed (takeover + rebind)
	Replays    int64 // ops replayed after a failure

	Shards  *ShardEvidence
	Chain   *ChainEvidence
	Control *ControlEvidence
	Fencing *FencingEvidence
}

// ShardEvidence is the Sharded topology's outcome.
type ShardEvidence struct {
	Count int
	// Strays / Repaired report the post-campaign divergence audit: resident
	// data buckets found on a shard that no longer owns their key (want 0),
	// and how many of those the audit evicted.
	Strays, Repaired int
	// JoinAttempted / JoinAborted report the mid-campaign elasticity probe:
	// whether AddShard ran, and whether it rolled back because the joiner
	// died mid-cutover.
	JoinAttempted, JoinAborted bool
}

// ChainEvidence is the Chain topology's outcome.
type ChainEvidence struct {
	Replicas int
	// PromotedNode is the chain member the failover promoted (-1: none);
	// PromotedApplied its applied watermark at promotion — the evidence the
	// election picked the most-advanced member.
	PromotedNode    int
	PromotedApplied uint64
	// HeadApplied / TailApplied snapshot the extremes of the members'
	// applied watermarks just before the mix — nonzero spread proves the
	// campaign actually starved the deep members.
	HeadApplied, TailApplied uint64
	// ReplicaReads counts clerk block fetches served by chain members.
	ReplicaReads int64
	// Spliced counts mid-chain members dropped by splices.
	Spliced int64
}

// ControlEvidence is the ControlPlane topology's outcome.
type ControlEvidence struct {
	Replicas        int
	LeaderBefore    int           // lease holder entering the mix
	LeaderAfter     int           // lease holder after the campaign
	Elections       int64         // completed re-elections
	ElectionLatency time.Duration // watchdog verdict → lease applied
	Decrees         int           // decrees applied by every surviving replica
	DriverCommits   int           // registry decrees the driver committed
	DriverErrors    int           // driver proposals that failed
	DecreesPerSec   float64       // driver commit rate under the campaign
	SteadyPerSec    float64       // driver commit rate in the fault-free leg
	LogsAgree       bool          // surviving replica logs byte-identical
	RegistryOK      bool          // replicated registry converged on survivors

	// AcceptorCPU is the per-category CPU burned on the surviving
	// control-plane machines during the measured window. The agreement
	// path itself is one-sided — proc/control/client time here comes from
	// the replicas applying decrees and heartbeating leases, not from
	// prepare/accept handling (see BenchmarkCASContention for the
	// pure-agreement measurement).
	AcceptorCPU map[string]time.Duration
}

// FencingEvidence is the SplitBrain topology's one-writer audit. The
// takeover's MTTR is the Result's.
type FencingEvidence struct {
	FenceLatency  time.Duration // watchdog verdict → fence decree committed
	Aborted       bool          // fence decree failed; failover never ran
	Denials       int64         // old primary's refused mutations while fenced
	OldSyncFrozen bool          // old primary applied nothing after the partition
	OldDeposed    bool          // old lease permanently lost after the heal
	NewWriterOK   bool          // promoted standby wrote unimpeded
}

// OneWriter reports the headline property: the old primary stopped
// writing before the new one started, and never wrote again.
func (f *FencingEvidence) OneWriter() bool {
	return f.OldSyncFrozen && f.NewWriterOK && f.Denials > 0
}

// Goodput is the fraction of the mix that completed byte-correct.
func (r *Result) Goodput() float64 {
	if len(r.Ops) == 0 {
		return 0
	}
	return float64(r.Completed) / float64(len(r.Ops))
}

// Availability is the fraction of the measured window the service was
// reachable: 1 − MTTR/Window. 1.0 when no failover occurred.
func (r *Result) Availability() float64 {
	if r.Window <= 0 || r.MTTR <= 0 {
		return 1
	}
	return max(0, 1-float64(r.MTTR)/float64(r.Window))
}

// Run measures the Figure 2 mix twice on cfg's topology — once fault-free
// for the baseline, once under the campaign — both with the reliability
// layer on and identical machines, daemons, and background traffic, and
// returns the per-op latencies, verification results, fault and retry
// tallies, and the topology's evidence.
func Run(cfg Config) (*Result, error) {
	if cfg.Topology < 0 || int(cfg.Topology) >= len(specs) {
		return nil, fmt.Errorf("scenario: unknown topology %d", int(cfg.Topology))
	}
	if cfg.Topology == Sharded && cfg.Shards < 1 {
		return nil, fmt.Errorf("scenario: sharded chaos needs at least one shard, got %d", cfg.Shards)
	}
	if cfg.Topology == Chain && cfg.Replicas < 1 {
		return nil, fmt.Errorf("scenario: chain chaos needs at least one replica, got %d", cfg.Replicas)
	}
	base, err := runLeg(&cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s chaos baseline: %w", cfg.Topology, err)
	}
	leg, err := runLeg(&cfg, &cfg.Campaign)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s chaos run: %w", cfg.Topology, err)
	}
	res := &Result{
		Campaign: cfg.Campaign.Name,
		Seed:     leg.eng.Seed(),
		Mode:     cfg.Mode,
		Injected: leg.eng.Counts(),
		Metrics:  leg.tr.Snapshot(),
		Window:   leg.window,
		Replays:  leg.replays,
		Events:   leg.events,
		Sched:    leg.sched,
	}
	res.Retries = res.Metrics.Counter("reliable.retries")
	res.Giveups = res.Metrics.Counter("reliable.giveup")
	for _, rec := range leg.rig.coordinators() {
		if rec == nil || !rec.Restored() {
			continue
		}
		res.FailedOver = true
		res.MTTR = max(res.MTTR, time.Duration(rec.MTTR()))
		res.Rebinds += rec.Rebinds
	}
	for i, op := range leg.ops {
		op.Baseline = base.ops[i].Chaos
		res.Ops = append(res.Ops, op)
		if op.OK {
			res.Completed++
		}
	}
	leg.rig.report(res, base.rig)
	return res, nil
}
