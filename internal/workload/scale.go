package workload

import (
	"fmt"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// The scalability experiment extends §3's argument to a measurement: "if
// we can eliminate both the traffic and the server involvement, we have
// the potential to improve scalability by lowering both network and server
// load." N closed-loop clients replay the Table 1a mix against one server;
// the interesting outputs are server CPU utilization and delivered
// operation throughput as N grows. Under HY the server saturates early
// (every call burns the 260 µs control-transfer path plus the procedure);
// under DX the same mix leaves the server CPU doing only data-transfer
// emulation.

// ScalePoint is one (mode, client-count) measurement.
type ScalePoint struct {
	Mode       dfs.Mode
	Clients    int
	OpsDone    int64
	OpsPerSec  float64
	ServerUtil float64      // server CPU utilization during the window
	MeanLatMs  float64      // mean per-operation latency, milliseconds
	P99Ms      float64      // p99 per-operation latency, milliseconds
	Events     uint64       // simulator events executed (see des.Env.Events)
	Sched      des.Counters // kernel scheduling-path counts (see des.Env.Counters)
}

// ScaleConfig parameterizes the experiment.
type ScaleConfig struct {
	Clients   int
	Mode      dfs.Mode
	Window    time.Duration // measurement window of virtual time
	ThinkTime time.Duration // per-client pause between operations
	Seed      int64
	Dirs      int
	PerDir    int
}

func (c *ScaleConfig) fill() {
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

// RunScale executes one scalability measurement.
func RunScale(cfg ScaleConfig) (ScalePoint, error) {
	cfg.fill()
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, cfg.Clients+1)
	ms := rmem.NewManager(cl.Nodes[0])

	var srv *dfs.Server
	var tree *Tree
	var setupErr error
	clerks := make([]*dfs.Clerk, cfg.Clients)
	env.Spawn("setup", func(p *des.Proc) {
		srv = dfs.NewServer(p, ms, cfg.Clients+1, dfs.Geometry{})
		tree, setupErr = BuildTree(srv, cfg.Dirs, cfg.PerDir)
		if setupErr != nil {
			return
		}
		for i := 0; i < cfg.Clients; i++ {
			mc := rmem.NewManager(cl.Nodes[i+1])
			clerks[i] = dfs.NewClerk(p, mc, srv, cfg.Mode)
		}
	})
	if err := env.RunUntil(des.Time(500 * time.Millisecond)); err != nil {
		return ScalePoint{}, err
	}
	if setupErr != nil {
		return ScalePoint{}, setupErr
	}

	// Launch closed-loop clients as daemons; measure over a fixed window.
	// All clients report through one shared Recorder — the same accounting
	// path the open-loop engine uses — so both loop styles emit the same
	// stat schema.
	rec := NewRecorder()
	start := env.Now()
	srv.Node().ResetCPUAcct()
	for i := 0; i < cfg.Clients; i++ {
		i := i
		env.SpawnDaemon(fmt.Sprintf("client%d", i), func(p *des.Proc) {
			gen := NewGenerator(cfg.Seed+int64(i), len(tree.Files), len(tree.Dirs))
			rep := &Replayer{Clerk: clerks[i], Tree: tree, Rec: rec}
			for {
				op := gen.Next()
				if err := rep.Do(p, op); err != nil {
					setupErr = fmt.Errorf("client %d: %v: %w", i, op.Activity, err)
					return
				}
				p.Sleep(cfg.ThinkTime)
			}
		})
	}
	if err := env.RunUntil(start.Add(cfg.Window)); err != nil {
		return ScalePoint{}, err
	}
	if setupErr != nil {
		return ScalePoint{}, setupErr
	}

	elapsed := time.Duration(env.Now().Sub(start))
	st := &rec.Tenants[0]
	pt := ScalePoint{
		Mode:       cfg.Mode,
		Clients:    cfg.Clients,
		OpsDone:    st.Ops,
		OpsPerSec:  float64(st.Ops) / elapsed.Seconds(),
		ServerUtil: srv.Node().CPU.Utilization(start),
		Events:     env.Events(),
		Sched:      env.Counters(),
	}
	if st.Ops > 0 {
		pt.MeanLatMs = (st.SumLat / time.Duration(st.Ops)).Seconds() * 1000
		pt.P99Ms = float64(st.Lat.P99()) / 1e6
	}
	return pt, nil
}
