package scenario

import (
	"fmt"
	"time"

	"netmem/internal/consensus"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/fstore"
	"netmem/internal/nameserver"
	"netmem/internal/recovery"
	"netmem/internal/rmem"
	"netmem/internal/shard"
)

// specs holds every topology's data. The differences that matter to the
// measured bytes live here, not in flags: the single-server rig warms
// with the Figure 2/3 pattern, the chain anchors 10ms early and steps its
// horizon, the control plane holds its window past the crash and replays
// without a coordinator, and split-brain paces its ops across the
// partition window.
var specs = [...]spec{
	Single: {
		build:  newSingle,
		warm:   func(i int) byte { return byte(i * 31) },
		anchor: 200 * time.Millisecond,
		idle:   true,
	},
	Sharded: {
		build:  newSharded,
		warm:   mod251,
		anchor: 200 * time.Millisecond,
		idle:   true,
	},
	Chain: {
		build:  newChain,
		warm:   mod251,
		anchor: 190 * time.Millisecond,
		lead:   100 * time.Microsecond,
		step:   10 * time.Millisecond,
	},
	ControlPlane: {
		build:  newControl,
		warm:   mod251,
		anchor: 200 * time.Millisecond,
		hold:   20 * time.Millisecond,
		blind:  true,
	},
	SplitBrain: {
		build:  newSplit,
		warm:   mod251,
		anchor: 200 * time.Millisecond,
		pace:   300 * time.Microsecond,
	},
}

func mod251(i int) byte { return byte(i % 251) }

// serverRig is the one-file-server data plane of the Single,
// ControlPlane, and SplitBrain topologies. srv follows a failover to the
// promoted standby.
type serverRig struct {
	*leg
	hooks
	srv   *dfs.Server
	clerk *dfs.Clerk
	rec   *recovery.Coordinator // nil without a standby
}

func (r *serverRig) written(fstore.Handle) (func() int64, time.Duration) {
	return func() int64 { return r.srv.DataDeposits() }, r.clerk.EffectiveCallTimeout()
}

func (r *serverRig) sync(p *des.Proc) error {
	_, err := r.srv.Sync(p)
	return err
}

func (r *serverRig) coordinator(dfs.OpSpec) *recovery.Coordinator { return r.rec }

func (r *serverRig) coordinators() []*recovery.Coordinator {
	return []*recovery.Coordinator{r.rec}
}

// armStandby gives the primary on node prim a hot standby on node sb
// mirroring its write-behind state, a heartbeat watched from node watcher,
// and the two failover steps: standby takeover, then clerk rebind. With cp
// set the failover is quorum-fenced: the watchdog's verdict is only a
// proposal replicated through the control log, the takeover waits out the
// victim's write lease, and the successor serves under a lease of its own.
func (r *serverRig) armStandby(p *des.Proc, prim, sb, watcher int, cp *consensus.ControlPlane) {
	standby := dfs.NewStandby(p, r.mgrs[sb], r.srv.Geo)
	r.srv.AttachStandby(p, standby, 100*time.Microsecond)
	hb := r.mgrs[prim].Export(p, 8)
	hb.SetDefaultRights(rmem.RightRead)
	rmem.StartHeartbeat(r.mgrs[prim], hb, 0, 100*time.Microsecond)
	hbImp := r.mgrs[watcher].Import(p, prim, hb.ID(), hb.Gen(), 8)

	var cfg recovery.Config
	if cp != nil {
		cfg.FenceWait = leaseTTL
	}
	r.rec = recovery.New(r.mgrs[watcher], prim, cfg)
	if cp != nil {
		r.rec.ReplicateVerdicts(cp.NewClient(p, r.mgrs[watcher]))
	}
	r.rec.OnFailover("standby.takeover", func(p *des.Proc) error {
		srv, err := standby.TakeOver(p, r.srv.Store, r.nodes, dfs.WithReliableReplies())
		if err != nil {
			return err
		}
		if cp != nil {
			lease, err := consensus.NewWriteLease(p, r.mgrs[sb], sb, cp, leaseTTL, leaseRefresh)
			if err != nil {
				return err
			}
			srv.SetWriteGuard(lease)
		}
		r.srv = srv
		return nil
	})
	r.rec.OnFailover("clerk.rebind", func(p *des.Proc) error {
		r.clerk.Rebind(p, r.srv)
		return nil
	})
	r.rec.Watch(hbImp, 0)
}

// serviceRig is the sharded data plane of the Sharded and Chain
// topologies.
type serviceRig struct {
	*leg
	hooks
	svc   *shard.Service
	clerk *shard.Clerk
}

func (r *serviceRig) written(h fstore.Handle) (func() int64, time.Duration) {
	owner := r.svc.Owner(h)
	return func() int64 { return r.svc.Shards[owner].DataDeposits() }, r.clerk.Sub(owner).EffectiveCallTimeout()
}

func (r *serviceRig) sync(p *des.Proc) error {
	_, err := r.svc.Sync(p)
	return err
}

// coordinator is the recovery coordinator of the shard op's key routes to.
func (r *serviceRig) coordinator(op dfs.OpSpec) *recovery.Coordinator {
	h := r.file
	switch op.Op {
	case dfs.OpLookup, dfs.OpReadDir:
		h = r.dir
	case dfs.OpReadLink:
		h = r.link
	}
	return r.svc.Coordinators()[r.svc.Owner(h)]
}

func (r *serviceRig) coordinators() []*recovery.Coordinator { return r.svc.Coordinators() }

// singleRig: the primary on node 0, the clerk on node 1, and under a
// crash schedule the standby on node 2.
type singleRig struct{ serverRig }

func newSingle(l *leg) rig {
	l.nodes = 2
	if l.failover {
		l.nodes = 3
	}
	return &singleRig{serverRig{leg: l}}
}

func (r *singleRig) setup(p *des.Proc) error {
	r.coldRestart(1)
	r.srv = dfs.NewServer(p, r.mgrs[0], r.nodes, dfs.Geometry{}, dfs.WithReliableReplies())
	opts := []dfs.ClerkOption{dfs.WithReliable()}
	if r.failover {
		// Fencing turns a post-restart stall into a typed fast failure;
		// the call timeout stays at the model-derived default (the full
		// retry ladder) — a switched rig pays the campaign's per-link
		// rates on two hops, and an 8K exchange needs the whole
		// capped-backoff schedule to clear sustained loss.
		opts = append(opts, dfs.WithFencing())
	}
	r.clerk = dfs.NewClerk(p, r.mgrs[1], r.srv, r.cfg.Mode, opts...)
	if err := r.warm(r.clerk, r.srv.Store, r.srv); err != nil {
		return err
	}
	if r.failover {
		r.armStandby(p, 0, 2, 1, nil)
	}
	return nil
}

// shardedRig: shard i on node i, the clerk on node S, and under a crash
// schedule shard i's standby on node S+1+i. A campaign crash aimed beyond
// that is the joiner-death schedule: the rig allocates the node and runs
// AddShard there 1ms before the crash, so it lands inside the cutover.
type shardedRig struct {
	serviceRig
	joiner           int // -1: no joiner
	joinAt           des.Time
	joinDone         bool  // the AddShard probe returned
	joinErr          error // ... and this is what it said
	strays, repaired int
}

func newSharded(l *leg) rig {
	n := l.cfg.Shards
	l.nodes = n + 1
	if l.failover {
		l.nodes = 2*n + 1
	}
	r := &shardedRig{serviceRig: serviceRig{leg: l}, joiner: -1}
	if l.camp != nil {
		for _, cr := range l.camp.Crashes {
			if cr.Node >= l.nodes {
				r.joiner, r.joinAt = cr.Node, des.Time(cr.At-time.Millisecond)
				l.nodes = cr.Node + 1
			}
		}
	}
	return r
}

func (r *shardedRig) setup(p *des.Proc) error {
	n := r.cfg.Shards
	r.coldRestart(n)
	r.svc = shard.NewService(p, r.mgrs[:n], r.nodes, dfs.Geometry{}, dfs.WithReliableReplies())
	opts := []dfs.ClerkOption{dfs.WithReliable()}
	if r.failover {
		opts = append(opts, dfs.WithFencing())
	}
	r.clerk = shard.NewClerk(p, r.mgrs[n], r.svc, r.cfg.Mode, shard.WithSubOptions(opts...))
	if err := r.warm(r.clerk, r.svc.Store, r.svc); err != nil {
		return err
	}
	if r.failover {
		// The clerk rebinds itself through its Membership subscription
		// when the coordinator publishes the slot move.
		for i := 0; i < n; i++ {
			r.svc.ArmFailover(p, i, r.mgrs[n+1+i], r.mgrs[n], 100*time.Microsecond)
		}
	}
	return nil
}

func (r *shardedRig) spawn() {
	if r.joiner < 0 {
		return
	}
	jm := r.mgrs[r.joiner]
	r.env.Spawn("chaos.join", func(p *des.Proc) {
		sleepUntil(p, r.joinAt)
		// The joiner dies 1ms in; AddShard must roll the cutover back and
		// leave the original ring serving. The error is the expected
		// outcome, not a harness failure.
		_, r.joinErr = r.svc.AddShard(p, jm)
		r.joinDone = true
	})
}

// afterMix is the divergence audit: after crashes, failovers, and
// replays, every resident data bucket must still live on the shard that
// owns its key.
func (r *shardedRig) afterMix(p *des.Proc) error {
	var err error
	if r.strays, r.repaired, err = r.svc.CheckDivergence(p); err != nil {
		return fmt.Errorf("divergence audit: %w", err)
	}
	return nil
}

func (r *shardedRig) report(res *Result, _ rig) {
	res.Shards = &ShardEvidence{Count: r.cfg.Shards, Strays: r.strays, Repaired: r.repaired,
		JoinAttempted: r.joinDone, JoinAborted: r.joinErr != nil}
}

// chainRig: the primary on node 0, the clerk on node 1, the failover
// watcher on node 2, and chain members on nodes 3..2+Replicas. Built for
// the replicalag campaign — per-link delays starve deep chain members
// while the head stays current, then the primary dies — but runs any.
type chainRig struct {
	serviceRig
	head, tail uint64 // extremes of the members' applied watermarks
}

func newChain(l *leg) rig {
	l.nodes = 3 + l.cfg.Replicas
	return &chainRig{serviceRig: serviceRig{leg: l}}
}

func (r *chainRig) setup(p *des.Proc) error {
	r.coldRestart(1)
	r.svc = shard.NewService(p, r.mgrs[:1], r.nodes, dfs.Geometry{}, dfs.WithReliableReplies())
	r.clerk = shard.NewClerk(p, r.mgrs[1], r.svc, r.cfg.Mode,
		shard.WithSubOptions(dfs.WithReliable(), dfs.WithFencing()), shard.WithTokenCache())
	if err := r.warm(r.clerk, r.svc.Store, r.svc); err != nil {
		return err
	}
	if err := r.svc.AttachReplicas(p, 0, r.mgrs[3:], 100*time.Microsecond); err != nil {
		return err
	}
	// The watcher gets its own otherwise-idle node: its probe reads must
	// not queue behind the clerk's bulk transfers, or fabric congestion
	// during the mix reads as a death verdict.
	_, err := r.svc.ArmChainFailover(p, 0, r.mgrs[2], 100*time.Microsecond)
	return err
}

// beforeMix lands a fresh write-behind burst just before the campaign's
// delay window: the resulting chain re-pushes are what the per-link
// delays starve, so the members' applied watermarks spread and the crash
// finds genuinely lagging deep members.
func (r *chainRig) beforeMix(p *des.Proc) {
	// Healthy-path evidence first: the chain converged on the warm frames
	// during setup and no write is in flight, so a re-read with the block
	// copies dropped (tokens and their stamped watermarks kept) must move
	// the bytes from a chain member. The campaign then starves and
	// decapitates exactly the tier this proves was serving.
	if _, err := r.clerk.Read(p, r.file, 0, 16384); err == nil {
		r.clerk.FlushLocal()
		r.clerk.DropTokenCache()
		_, _ = r.clerk.Read(p, r.file, 0, 16384)
	}
	lag := make([]byte, 16384)
	for i := range lag {
		lag[i] = byte(254 - i%251) // distinct from the warm pattern, so every bucket re-pushes
	}
	if err := r.clerk.Write(p, r.file, 0, lag); err == nil {
		_, _ = r.svc.Sync(p)
	}
	for _, cr := range r.svc.Replicas(0) {
		a := cr.Applied()
		if r.head == 0 || a > r.head {
			r.head = a
		}
		if r.tail == 0 || a < r.tail {
			r.tail = a
		}
	}
}

func (r *chainRig) report(res *Result, _ rig) {
	res.Chain = &ChainEvidence{
		Replicas:        r.cfg.Replicas,
		PromotedNode:    r.svc.PromotedNode,
		PromotedApplied: r.svc.PromotedApplied,
		HeadApplied:     r.head,
		TailApplied:     r.tail,
		ReplicaReads:    r.clerk.ReplicaReads,
		Spliced:         r.svc.ChainSplices,
	}
}

// Control-plane layout, shared by ControlPlane and SplitBrain: three
// acceptor/replica machines on nodes 0..2.
const controlReplicas = 3

// controlPlane boots the control plane on nodes 0..2 — lanes for the
// replicas plus one client, slots sized for the decree stream across the
// mix window — and seats the first lease. fenced adds the per-node fence
// table that write leases refresh against.
func (l *leg) controlPlane(p *des.Proc, clerks []*nameserver.Clerk, fenced bool) (*consensus.ControlPlane, error) {
	g := consensus.NewGroup(p, consensus.Config{
		Acceptors: controlReplicas, Proposers: controlReplicas + 1, Slots: 1024,
	}, l.mgrs[:controlReplicas]...)
	cp := consensus.NewControlPlane(p, g, clerks)
	if fenced {
		cp.EnableFenceTable(p, l.nodes)
	}
	return cp, cp.Start(p)
}

// controlRig: the data plane's file server on node 3 and its clerk on
// node 4, where the decree driver also runs. Replica 0 holds the initial
// lease, so the leadercrash campaign (crash node 0) kills the leader.
type controlRig struct {
	serverRig
	cp           *consensus.ControlPlane
	cli          *consensus.Client
	lastName     string // the last registry name the driver committed
	commits      int
	driverErrs   int
	driverWindow time.Duration
	ev           ControlEvidence
}

const (
	controlServer = 3
	controlClerk  = 4
	// driverPeriod is the decree cadence of the control-plane driver.
	driverPeriod = 250 * time.Microsecond
)

func newControl(l *leg) rig {
	l.nodes = 5
	return &controlRig{serverRig: serverRig{leg: l}}
}

func (r *controlRig) setup(p *des.Proc) error {
	// The name-service clerks boot first: their well-known registry
	// segments carry fixed generation numbers that assume they are each
	// control node's first exports.
	peers := []int{0, 1, 2}
	clerks := make([]*nameserver.Clerk, controlReplicas)
	for i := range clerks {
		clerks[i] = nameserver.New(r.mgrs[i], peers, nameserver.Config{})
	}
	p.Sleep(time.Millisecond)
	var err error
	if r.cp, err = r.controlPlane(p, clerks, false); err != nil {
		return err
	}
	r.srv = dfs.NewServer(p, r.mgrs[controlServer], r.nodes, dfs.Geometry{}, dfs.WithReliableReplies())
	r.clerk = dfs.NewClerk(p, r.mgrs[controlClerk], r.srv, r.cfg.Mode, dfs.WithReliable())
	if err := r.warm(r.clerk, r.srv.Store, r.srv); err != nil {
		return err
	}
	r.cli = r.cp.NewClient(p, r.mgrs[controlClerk])
	return nil
}

// spawn starts the driver: a steady stream of registry decrees through
// the log, the control-plane analogue of the mix's data traffic. It keeps
// proposing straight through the crash — commits after it prove the log
// lives on a majority of the original acceptors.
func (r *controlRig) spawn() {
	r.env.Spawn("chaos.driver", func(p *des.Proc) {
		sleepUntil(p, des.Time(r.spec.anchor))
		start := p.Now()
		for i := 0; !r.mixDone; i++ {
			name := fmt.Sprintf("cp.obj%04d", i)
			rec := nameserver.Record{
				Name: name, Node: controlServer,
				Seg: uint16(0x2000 + i), Gen: uint16(i + 1), Epoch: 1, Size: 64,
			}
			if err := r.cli.RegisterName(p, rec); err != nil {
				r.driverErrs++
			} else {
				r.commits++
				r.lastName = name
			}
			p.Sleep(driverPeriod)
		}
		r.driverWindow = time.Duration(p.Now().Sub(start))
	})
}

func (r *controlRig) beforeMix(*des.Proc) {
	r.ev.LeaderBefore = r.cp.Leader()
	for i := 0; i < controlReplicas; i++ {
		r.cl.Nodes[i].ResetCPUAcct()
	}
}

// afterMix settles, then audits the control plane: the survivors' CPU
// over the window, the lease holder, and survivor agreement.
func (r *controlRig) afterMix(p *des.Proc) error {
	p.Sleep(5 * time.Millisecond)
	r.ev.AcceptorCPU = make(map[string]time.Duration)
	for i := 0; i < controlReplicas; i++ {
		if r.cl.Nodes[i].Failed() {
			continue
		}
		for cat, d := range r.cl.Nodes[i].CPUAcct {
			r.ev.AcceptorCPU[cat] += time.Duration(d)
		}
	}
	r.ev.LeaderAfter = r.cp.Leader()
	var err error
	r.ev.Decrees, r.ev.RegistryOK, err = r.cp.AuditSurvivors(p, r.lastName, controlServer)
	r.ev.LogsAgree = err == nil
	return err
}

// rate is the driver's commit rate over its window.
func (r *controlRig) rate() float64 {
	if r.driverWindow <= 0 {
		return 0
	}
	return float64(r.commits) / r.driverWindow.Seconds()
}

func (r *controlRig) report(res *Result, base rig) {
	ev := r.ev
	ev.Replicas = controlReplicas
	ev.Elections = r.cp.Elections
	ev.ElectionLatency = time.Duration(r.cp.LastElection)
	ev.DriverCommits, ev.DriverErrors = r.commits, r.driverErrs
	ev.DecreesPerSec = r.rate()
	ev.SteadyPerSec = base.(*controlRig).rate()
	res.Control = &ev
}

// splitRig: the primary on node 3, its standby on node 4, the clerk (with
// the recovery coordinator and the consensus client) on node 5. A
// partition isolates the healthy primary; acting on the watchdog's verdict
// directly would leave two writers, so the takeover runs only once the
// fence decree commits on the replica quorum, and the old primary —
// unable to refresh its write lease against that same quorum — refuses
// its own Sync before the standby touches a byte.
type splitRig struct {
	serverRig
	old         *dfs.Server
	lease       *consensus.WriteLease
	syncedAtCut int64 // old.Synced when the partition opened (-1: never)
	ev          FencingEvidence
}

const (
	splitPrimary = 3
	splitStandby = 4
	splitClerk   = 5
	// leaseTTL / leaseRefresh tune the primaries' write leases. The TTL is
	// also the coordinator's FenceWait: by the time the standby is
	// promoted, an unreachable primary's lease has provably lapsed.
	leaseTTL     = time.Millisecond
	leaseRefresh = 250 * time.Microsecond
)

func newSplit(l *leg) rig {
	l.nodes = 6
	return &splitRig{serverRig: serverRig{leg: l}, syncedAtCut: -1}
}

func (r *splitRig) setup(p *des.Proc) error {
	cp, err := r.controlPlane(p, nil, true)
	if err != nil {
		return err
	}
	r.srv = dfs.NewServer(p, r.mgrs[splitPrimary], r.nodes, dfs.Geometry{}, dfs.WithReliableReplies())
	r.clerk = dfs.NewClerk(p, r.mgrs[splitClerk], r.srv, r.cfg.Mode, dfs.WithReliable(), dfs.WithFencing())
	if err := r.warm(r.clerk, r.srv.Store, r.srv); err != nil {
		return err
	}
	r.old = r.srv
	// The primary's write lease: every mutation checks it, and it only
	// stays valid while a quorum of fence tables keeps agreeing the
	// primary is unfenced.
	if r.lease, err = consensus.NewWriteLease(p, r.mgrs[splitPrimary], splitPrimary, cp, leaseTTL, leaseRefresh); err != nil {
		return err
	}
	r.srv.SetWriteGuard(r.lease)
	// The old primary keeps draining write-behind state on its own cadence
	// — the exact daemon that must go quiet once fenced.
	r.env.SpawnDaemon("chaos.oldsync", func(sp *des.Proc) {
		for {
			sp.Sleep(2 * leaseRefresh)
			if _, err := r.old.Sync(sp); err != nil {
				return
			}
		}
	})
	r.armStandby(p, splitPrimary, splitStandby, splitClerk, cp)
	return nil
}

// spawn freezes the old primary's Sync counter at the moment the
// partition opens; everything it applies afterwards is a split-brain
// write.
func (r *splitRig) spawn() {
	if r.camp == nil || len(r.camp.Partitions) == 0 {
		return
	}
	cut := des.Time(r.camp.Partitions[0].From)
	r.env.Spawn("chaos.mark", func(p *des.Proc) {
		sleepUntil(p, cut)
		r.syncedAtCut = r.old.Synced
	})
}

// afterMix is the one-writer audit. It needs the heal: the old primary
// must observe that it was fenced and repaired behind its back, and stay
// deposed.
func (r *splitRig) afterMix(p *des.Proc) error {
	if r.camp == nil {
		return nil
	}
	if pt := r.camp.Partitions; len(pt) > 0 && pt[0].HealAt > 0 {
		sleepUntil(p, des.Time(pt[0].HealAt+5*time.Millisecond))
	}
	r.ev = FencingEvidence{
		Denials:       r.old.GuardDenials,
		OldSyncFrozen: r.syncedAtCut >= 0 && r.old.Synced == r.syncedAtCut,
		OldDeposed:    r.lease.Deposed(),
		NewWriterOK:   r.srv != r.old && r.srv.GuardDenials == 0,
	}
	return nil
}

func (r *splitRig) report(res *Result, _ rig) {
	ev := r.ev
	ev.FenceLatency = time.Duration(r.rec.FenceLatency())
	ev.Aborted = r.rec.Aborted()
	res.Fencing = &ev
}
