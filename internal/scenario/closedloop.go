package scenario

import (
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/rmem"
	"netmem/internal/shard"
	"netmem/internal/workload"
)

// The closed-loop experiments extend §3's argument to a measurement: "if
// we can eliminate both the traffic and the server involvement, we have
// the potential to improve scalability by lowering both network and server
// load." N closed-loop clients replay the Table 1a mix against the serving
// tier; the outputs are server CPU utilization and delivered throughput as
// N grows. On one server under HY the server saturates early (every call
// burns the 260 µs control-transfer path plus the procedure); under DX the
// same mix leaves it doing only data-transfer emulation. On a sharded tier
// with clients scaled with the shards, aggregate throughput should grow
// while each shard's occupancy stays near the one-server baseline — the
// load is divided, not replicated.

// closedLoopAnchor ends setup; the measurement window opens there.
const closedLoopAnchor = des.Time(500 * time.Millisecond)

// ClosedLoopConfig selects one closed-loop measurement. Servers sit on
// nodes 0.., clients on the nodes after.
type ClosedLoopConfig struct {
	// Topology is Single (one dfs.Server) or Sharded (Shards servers
	// behind a consistent-hash ring).
	Topology Topology
	Shards   int // Sharded: server count (default 1)
	Clients  int
	Mode     dfs.Mode
	// TokenCache layers the token-coherent client block cache (Sharded).
	TokenCache bool
	Window     time.Duration // measurement window of virtual time (default 2s)
	ThinkTime  time.Duration // per-client pause between operations
	Seed       int64         // seeds the clients' op generators (default 1)
	Dirs       int           // synthetic tree shape (default 4 × 8)
	PerDir     int
}

// ClosedLoopPoint is one measured point.
type ClosedLoopPoint struct {
	Mode      dfs.Mode
	Servers   int
	Clients   int
	OpsDone   int64
	OpsPerSec float64
	// ServerUtil is each server node's CPU utilization over the window;
	// MeanUtil their mean.
	ServerUtil []float64
	MeanUtil   float64
	MeanLatMs  float64      // mean per-operation latency, milliseconds
	P99Ms      float64      // p99 per-operation latency, milliseconds
	TokenHits  int64        // reads served from the token-coherent cache
	Events     uint64       // simulator events executed (see des.Env.Events)
	Sched      des.Counters // kernel scheduling-path counts (see des.Env.Counters)
}

func (c *ClosedLoopConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Window <= 0 {
		c.Window = 2 * time.Second
	}
	if c.ThinkTime < 0 {
		c.ThinkTime = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Dirs <= 0 {
		c.Dirs = 4
	}
	if c.PerDir <= 0 {
		c.PerDir = 8
	}
}

// RunClosedLoop executes one closed-loop measurement.
func RunClosedLoop(cfg ClosedLoopConfig) (*ClosedLoopPoint, error) {
	cfg.fill()
	servers := 1
	switch cfg.Topology {
	case Single:
	case Sharded:
		servers = cfg.Shards
	default:
		return nil, fmt.Errorf("scenario: closed loop runs on the single or sharded tier, not %s", cfg.Topology)
	}
	nodes := servers + cfg.Clients
	m := boot(bootSpec{nodes: nodes})
	var tree *workload.Tree
	clerks := make([]workload.FileAPI, cfg.Clients)
	var sharded []*shard.Clerk
	err := m.setupTo(closedLoopAnchor, func(p *des.Proc) (err error) {
		if cfg.Topology == Single {
			srv := dfs.NewServer(p, m.mgrs[0], nodes, dfs.Geometry{})
			if tree, err = workload.BuildTree(srv, cfg.Dirs, cfg.PerDir); err != nil {
				return err
			}
			for i := range clerks {
				clerks[i] = dfs.NewClerk(p, m.mgrs[1+i], srv, cfg.Mode)
			}
			return nil
		}
		svc := shard.NewService(p, m.mgrs[:servers], nodes, dfs.Geometry{})
		if tree, err = workload.BuildTreeOn(svc.Store, svc, cfg.Dirs, cfg.PerDir); err != nil {
			return err
		}
		sharded = shardClerks(p, svc, m.mgrs[servers:], cfg.Mode, cfg.TokenCache)
		for i, c := range sharded {
			clerks[i] = c
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// All clients report through one shared Recorder — the same accounting
	// path the open-loop engine uses — so both loop styles emit the same
	// stat schema.
	start := m.env.Now()
	for i := 0; i < servers; i++ {
		m.cl.Nodes[i].ResetCPUAcct()
	}
	loop := &clientLoop{tree: tree, seed: cfg.Seed, think: cfg.ThinkTime, rec: workload.NewRecorder()}
	loop.spawn(m.env, clerks)
	if err := m.env.RunUntil(start.Add(cfg.Window)); err != nil {
		return nil, err
	}
	if loop.err != nil {
		return nil, loop.err
	}

	elapsed := time.Duration(m.env.Now().Sub(start))
	st := &loop.rec.Tenants[0]
	pt := &ClosedLoopPoint{
		Mode:      cfg.Mode,
		Servers:   servers,
		Clients:   cfg.Clients,
		OpsDone:   st.Ops,
		OpsPerSec: float64(st.Ops) / elapsed.Seconds(),
		Events:    m.env.Events(),
		Sched:     m.env.Counters(),
	}
	for i := 0; i < servers; i++ {
		u := m.cl.Nodes[i].CPU.Utilization(start)
		pt.ServerUtil = append(pt.ServerUtil, u)
		pt.MeanUtil += u
	}
	pt.MeanUtil /= float64(servers)
	for _, c := range sharded {
		pt.TokenHits += c.TokenHits
	}
	if st.Ops > 0 {
		pt.MeanLatMs = (st.SumLat / time.Duration(st.Ops)).Seconds() * 1000
		pt.P99Ms = ms(st.Lat.P99())
	}
	return pt, nil
}

// shardClerks gives each manager a clerk on svc, with opts. With tokens
// set the clerks cache blocks under read tokens and are wired into one
// revocation mesh.
func shardClerks(p *des.Proc, svc *shard.Service, mgrs []*rmem.Manager, mode dfs.Mode, tokens bool, opts ...shard.ClerkOption) []*shard.Clerk {
	if tokens {
		opts = append([]shard.ClerkOption{shard.WithTokenCache()}, opts...)
	}
	clerks := make([]*shard.Clerk, len(mgrs))
	for i, mg := range mgrs {
		clerks[i] = shard.NewClerk(p, mg, svc, mode, opts...)
	}
	if tokens {
		shard.ConnectTokenPeers(p, clerks...)
	}
	return clerks
}

// clientLoop is a closed-loop client population: client i draws the
// Table 1a mix from seed+i and replays it through its clerk back to back,
// thinking between operations, until stop.
type clientLoop struct {
	tree  *workload.Tree
	seed  int64
	think time.Duration
	// rec receives every outcome; a driver may swap it between phases
	// (the DES is single-threaded), and each op lands in the recorder
	// live when it completed.
	rec  *workload.Recorder
	stop bool
	err  error // the first failed op; failures also count in rec
}

// spawn starts one daemon per clerk.
func (c *clientLoop) spawn(env *des.Env, clerks []workload.FileAPI) {
	for i, clerk := range clerks {
		env.SpawnDaemon(fmt.Sprintf("client%d", i), func(p *des.Proc) {
			gen := workload.NewGenerator(c.seed+int64(i), len(c.tree.Files), len(c.tree.Dirs))
			rep := &workload.Replayer{Clerk: clerk, Tree: c.tree}
			for !c.stop {
				rep.Rec = c.rec
				op := gen.Next()
				if err := rep.Do(p, op); err != nil && c.err == nil {
					c.err = fmt.Errorf("client %d: %v: %w", i, op.Activity, err)
				}
				p.Sleep(c.think)
			}
		})
	}
}
