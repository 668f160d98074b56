package scenario

import (
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/shard"
	"netmem/internal/stats"
	"netmem/internal/workload"
)

// The open-loop driver. The closed-loop drivers (RunClosedLoop) measure
// capacity: each client issues, waits, thinks — so when the system slows
// down, the offered load politely slows with it, and tail latency is
// flattered (coordinated omission). Here arrivals come from a
// workload.Schedule on the virtual clock, independent of completions, and
// each op's latency clock starts at its *scheduled* arrival — queueing
// delay counts. Simulated clients are just identities on arrivals, so a
// million of them cost nothing; the ops execute on a small pool of clerk
// "lanes" behind a bounded FIFO, and when the FIFO fills the arrival is
// shed and charged against SLO attainment.

// openLoopSetup bounds a runaway open-loop setup. Every shard wires a
// token revocation mesh between every pair of lane clerks, and that
// dominates setup at many lanes: about 0.5ms of virtual time per shard and
// lane pair (the 4-shard smoke topology took 228ms at 8 lanes, 2,034ms at
// 32 and 7,528ms at 64). The bound allows four times that on top of a
// second for the tree, the chains and their convergence.
func openLoopSetup(cfg workload.OpenLoopConfig) time.Duration {
	return time.Second + time.Duration(cfg.Shards*cfg.Lanes*cfg.Lanes)*2*time.Millisecond
}

// RunOpenLoop executes one open-loop measurement. Topology: shard
// primaries on nodes 0..S-1, chain members on the next S·K, lane clerks
// after, and (under a campaign) a failover watcher on the last node.
func RunOpenLoop(cfg workload.OpenLoopConfig) (*workload.OpenLoopResult, error) {
	cfg.Fill()
	laneBase := cfg.Shards + cfg.Shards*cfg.Replicas
	nodes := laneBase + cfg.Lanes
	watcherNode := -1
	if cfg.Campaign != nil && cfg.Replicas > 0 {
		watcherNode = nodes
		nodes++
	}
	m := boot(bootSpec{nodes: nodes, seed: cfg.Seed, camp: cfg.Campaign})
	m.coldRestart(nodes)

	var svc *shard.Service
	var tree *workload.Tree
	var laneClerks []*shard.Clerk
	// The quantized stop puts the window start on a whole-millisecond
	// boundary deterministically. A campaign's crash schedule is keyed to
	// virtual time, and setup does not always finish first: under the
	// stock mixed campaign (shard 0's primary crashes at 202ms) the smoke
	// topology's window opens at 289, 240 and 288ms at seeds 1, 2 and 3.
	// The crash lands during setup — at seeds 1 and 3 the chains never
	// converge and the wait ends on its bound — and 6 of the 9 shape ×
	// seed smoke points end with "open-loop drain incomplete".
	err := m.setupStepped(time.Millisecond, openLoopSetup(cfg), func(p *des.Proc) (err error) {
		var svcOpts []dfs.ServerOption
		var subOpts []shard.ClerkOption
		if cfg.Campaign != nil {
			svcOpts = append(svcOpts, dfs.WithReliableReplies())
			subOpts = append(subOpts, shard.WithSubOptions(dfs.WithReliable(), dfs.WithFencing()))
		}
		svc = shard.NewService(p, m.mgrs[:cfg.Shards], nodes, dfs.Geometry{}, svcOpts...)
		if tree, err = workload.BuildTreeOn(svc.Store, svc, cfg.Dirs, cfg.PerDir); err != nil {
			return err
		}
		laneClerks = shardClerks(p, svc, m.mgrs[laneBase:laneBase+cfg.Lanes], cfg.Mode, true, subOpts...)
		for slot := 0; slot < cfg.Shards && cfg.Replicas > 0; slot++ {
			members := m.mgrs[cfg.Shards+slot*cfg.Replicas : cfg.Shards+(slot+1)*cfg.Replicas]
			if err := svc.AttachReplicas(p, slot, members, 100*time.Microsecond); err != nil {
				return err
			}
		}
		if watcherNode >= 0 {
			for slot := 0; slot < cfg.Shards; slot++ {
				if _, err := svc.ArmChainFailover(p, slot, m.mgrs[watcherNode], 100*time.Microsecond); err != nil {
					return err
				}
			}
		}
		// Let every chain converge on the warm frames before arrivals.
		svc.AwaitChains(p)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: open-loop setup: %w", err)
	}

	classes := make([]workload.SLOClass, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		classes[i] = workload.SLOClass{Name: t.Name, Deadline: t.Deadline}
	}
	rec := workload.NewRecorder(classes...)
	res := &workload.OpenLoopResult{
		Shape:     cfg.Shape.String(),
		ZipfTheta: cfg.ZipfTheta,
		Clients:   cfg.Clients,
		Shards:    cfg.Shards,
		Replicas:  cfg.Replicas,
		Lanes:     cfg.Lanes,
	}
	if cfg.Campaign != nil {
		res.Campaign = cfg.Campaign.Name
	}

	env := m.env
	start := env.Now()
	for i := 0; i < cfg.Shards; i++ {
		m.cl.Nodes[i].ResetCPUAcct()
	}
	var queue []workload.Arrival
	var qhead int
	qlen := func() int { return len(queue) - qhead }
	wq := des.NewWaitQueue(env)
	var dispatchDone bool
	var accounted int64
	var qwait stats.Sketch

	env.Spawn("openloop.dispatch", func(p *des.Proc) {
		sched := workload.NewSchedule(cfg, len(tree.Files), len(tree.Dirs))
		for {
			a, ok := sched.Next()
			if !ok {
				break
			}
			sleepUntil(p, start.Add(a.At))
			res.Offered++
			if qlen() >= cfg.MaxQueue {
				rec.RecordShed(a.Tenant)
				res.Shed++
				accounted++
				continue
			}
			queue = append(queue, a)
			if l := qlen(); l > res.PeakQueue {
				res.PeakQueue = l
			}
			wq.WakeOne()
		}
		dispatchDone = true
		wq.WakeAll()
	})
	for i, clerk := range laneClerks {
		env.Spawn(fmt.Sprintf("openloop.lane%d", i), func(p *des.Proc) {
			// The token-coherent cache stays live across ops (production
			// posture): reads on hot blocks hit locally until a tenant's
			// write recalls the tokens.
			rep := &workload.Replayer{Clerk: clerk, Tree: tree, LocalCaching: true}
			for {
				if qlen() == 0 {
					if dispatchDone {
						return
					}
					wq.Wait(p)
					continue
				}
				a := queue[qhead]
				qhead++
				if qhead == len(queue) {
					queue = queue[:0]
					qhead = 0
				}
				sched := start.Add(a.At)
				qwait.ObserveDuration(time.Duration(p.Now().Sub(sched)))
				if a.Straggler {
					res.Stragglers++
					p.Sleep(cfg.StragglerDelay)
				}
				err := rep.Apply(p, a.Op)
				// Latency runs from the *scheduled* arrival: queueing and
				// straggler holds count, exactly what a closed loop hides.
				rec.Record(a.Tenant, time.Duration(p.Now().Sub(sched)), err)
				accounted++
			}
		})
	}

	horizon := time.Duration(start) + cfg.Window + 2*time.Second
	err = stepRun(env, time.Millisecond, horizon, func() bool {
		return dispatchDone && qlen() == 0 && accounted == res.Offered
	})
	if err != nil {
		return nil, err
	}
	if accounted != res.Offered {
		return nil, fmt.Errorf("scenario: open-loop drain incomplete: %d of %d ops accounted", accounted, res.Offered)
	}

	res.Report = rec.Report(cfg.Window)
	res.QWaitP50Ms = ms(qwait.P50())
	res.QWaitP99Ms = ms(qwait.P99())
	for _, c := range laneClerks {
		res.TokenHits += c.TokenHits
		res.ReplicaReads += c.ReplicaReads
		res.ReplicaFallbacks += c.ReplicaFallbacks
	}
	for i := 0; i < cfg.Shards; i++ {
		res.MeanShardUtil += m.cl.Nodes[i].CPU.Utilization(start)
	}
	res.MeanShardUtil /= float64(cfg.Shards)
	for _, rc := range svc.Coordinators() {
		if rc == nil || !rc.Restored() {
			continue
		}
		res.FailedOver = true
		res.MTTRMs = max(res.MTTRMs, ms(int64(rc.MTTR())))
	}
	res.Events = env.Events()
	res.Sched = env.Counters()
	return res, nil
}

// SmokeConfig is the seed-pinned smoke point (fsbench -slo-smoke, the
// simbench slo-smoke leg): one full-scale open-loop run, 100k clients on
// the 4-shard tier with a 3-member replica chain per shard. Under a fault
// campaign the offered rate and window shrink — link-fault campaigns
// multiply simulator events ~50×, and the crash schedule sits at a fixed
// virtual time the window must straddle.
func SmokeConfig(shape workload.Shape, seed int64, camp *faults.Campaign) workload.OpenLoopConfig {
	cfg := workload.OpenLoopConfig{
		Clients:           100_000,
		RatePerClient:     0.05,
		Window:            500 * time.Millisecond,
		Shape:             shape,
		ZipfTheta:         0.9,
		Shards:            4,
		Replicas:          3,
		StragglerPerMille: 5,
		Seed:              seed,
		Campaign:          camp,
	}
	if camp != nil {
		cfg.RatePerClient = 0.02
		cfg.Window = 300 * time.Millisecond
	}
	cfg.Fill()
	return cfg
}

// RunSLOSweep measures every (shape, theta) grid cell of cfg.
func RunSLOSweep(cfg workload.SLOSweepConfig) (*workload.BenchSLO, error) {
	cfg.Fill()
	doc := &workload.BenchSLO{
		Schema:   workload.BenchSLOSchema,
		Seed:     cfg.Seed,
		Clients:  cfg.Clients,
		Shards:   cfg.Shards,
		Replicas: cfg.Replicas,
		WindowMs: float64(cfg.Window) / 1e6,
	}
	for _, shape := range cfg.Shapes {
		for _, theta := range cfg.Thetas {
			res, err := RunOpenLoop(cfg.PointConfig(shape, theta))
			if err != nil {
				return nil, fmt.Errorf("scenario: slo point shape=%v theta=%.2f: %w", shape, theta, err)
			}
			doc.Points = append(doc.Points, res)
		}
	}
	return doc, nil
}
