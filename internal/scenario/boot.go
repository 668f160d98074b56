package scenario

import (
	"fmt"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/faults"
	"netmem/internal/model"
	"netmem/internal/obs"
	"netmem/internal/rmem"
)

// machines is one booted simulation: the environment, its optional tracer
// and fault engine, the cluster, and one rmem manager per node. Every
// harness in this package starts from boot and runs its setup process
// through setupTo or setupStepped.
type machines struct {
	env  *des.Env
	tr   *obs.Tracer    // nil unless booted with trace
	eng  *faults.Engine // nil without a campaign
	cl   *cluster.Cluster
	mgrs []*rmem.Manager
}

// bootSpec sizes one boot.
type bootSpec struct {
	nodes int
	seed  int64            // 0: des.DefaultSeed
	trace bool             // attach a metrics tracer
	camp  *faults.Campaign // nil: fault-free
}

// boot builds the machines: env and seed, tracer, fault engine, the
// cluster on the default cost model, and the managers.
func boot(b bootSpec) *machines {
	m := &machines{env: des.NewEnv()}
	if b.seed != 0 {
		m.env.Seed(b.seed)
	}
	if b.trace {
		m.tr = obs.New(obs.Config{})
		m.env.SetTracer(m.tr)
	}
	var opts []cluster.Option
	if b.camp != nil {
		m.eng = faults.NewEngine(m.env, *b.camp)
		opts = append(opts, cluster.WithFaultEngine(m.eng))
	}
	m.cl = cluster.New(m.env, &model.Default, b.nodes, opts...)
	m.mgrs = make([]*rmem.Manager, b.nodes)
	for i := range m.mgrs {
		m.mgrs[i] = rmem.NewManager(m.cl.Nodes[i])
	}
	return m
}

// coldRestart makes nodes 0..n-1 reboot cold: a recovered node's restarted
// manager fences every descriptor issued by the dead incarnation (nil-safe
// without a fault engine).
func (m *machines) coldRestart(n int) {
	for i := 0; i < n; i++ {
		m.eng.OnRecover(i, m.mgrs[i].Restart)
	}
}

// task is a process whose outcome the driver reads after a run.
type task struct {
	done bool  // fn returned
	err  error // what it returned
}

// spawnSetup starts fn as the setup process.
func (m *machines) spawnSetup(fn func(p *des.Proc) error) *task {
	t := &task{}
	m.env.Spawn("scenario.setup", func(p *des.Proc) {
		t.err = fn(p)
		t.done = true
	})
	return t
}

// setupTo runs fn as the setup process and the simulation up to the
// anchor, and returns the run's error, fn's, or an error naming the
// anchor when fn had not returned by then. Work fn spawns keeps running
// to the anchor too.
func (m *machines) setupTo(anchor des.Time, fn func(p *des.Proc) error) error {
	t := m.spawnSetup(fn)
	if err := m.env.RunUntil(anchor); err != nil {
		return err
	}
	return t.outcome(anchor)
}

// outcome is fn's error, or an error naming the bound when fn had not
// returned by it.
func (t *task) outcome(bound des.Time) error {
	if !t.done {
		return fmt.Errorf("setup did not finish within %v", time.Duration(bound))
	}
	return t.err
}

// setupStepped runs fn as the setup process and advances the simulation
// in step slices (see stepRun) until fn has returned; horizon only bounds
// a runaway setup. It returns the run's error, fn's, or an error naming
// the horizon when fn never returned.
func (m *machines) setupStepped(step, horizon time.Duration, fn func(p *des.Proc) error) error {
	t := m.spawnSetup(fn)
	if err := stepRun(m.env, step, horizon, func() bool { return t.done }); err != nil {
		return err
	}
	return t.outcome(des.Time(horizon))
}

// stepRun advances env in step-sized slices until stop() or the horizon.
// Chain and heartbeat daemons never idle, so a run needs a quantized,
// predicate-gated stop to keep its event count deterministic.
func stepRun(env *des.Env, step, horizon time.Duration, stop func() bool) error {
	end := des.Time(horizon)
	for !stop() && env.Now() < end {
		next := env.Now().Add(step)
		if next > end {
			next = end
		}
		// An empty tick pins an event on the boundary: RunUntil leaves the
		// clock at the last executed event, so a quiet stretch (no chain
		// daemons, next event beyond the step) would otherwise freeze now —
		// and with it this loop. It also puts the stop on a whole step.
		env.ScheduleFunc(next, func() {})
		if err := env.RunUntil(next); err != nil {
			return err
		}
	}
	return nil
}

// sleepUntil parks p until virtual time at (no-op once past it).
func sleepUntil(p *des.Proc, at des.Time) {
	if p.Now() < at {
		p.Sleep(time.Duration(at.Sub(p.Now())))
	}
}

// ms converts nanoseconds to float milliseconds.
func ms(d int64) float64 { return float64(d) / 1e6 }
