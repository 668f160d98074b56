package main

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/fstore"
	"netmem/internal/model"
	"netmem/internal/obs"
	"netmem/internal/rmem"
	"netmem/internal/shard"
)

// The rig composes the file service from the layers' public functions and
// drives one open-loop run of a workload: set-up, then the arrival window.
// Node layout: shard primaries 0..S-1, then chain members (S·K) or hot
// standbys (S), then the clerk lanes, then, under the fault campaign, the
// failover watcher.

type fileTree struct {
	files   []fstore.Handle
	names   []string // per file, its name in its directory
	dirs    []fstore.Handle
	links   []fstore.Handle
	targets []string // per directory, its symlink's target
}

type opRec struct {
	Arrival
	sched, pick, svc, end des.Time
	done, shed            bool
	wrong                 bool // the oracle rejected what the op returned
	err                   error
}

// Rig is one simulated system plus the benchmark's instruments on it.
type Rig struct {
	w      *Workload
	seed   int64
	env    *des.Env
	tr     *obs.Tracer
	eng    *faults.Engine
	cl     *cluster.Cluster
	svc    *shard.Service
	clerks []*shard.Clerk
	tree   fileTree
	oracle *Oracle
	ten    []Tenant

	serving   []int        // nodes that serve: primaries, chain members, standbys
	primaries map[int]bool // nodes that were a shard's primary during the window
}

// stepRun advances env in step-sized slices until stop() or the horizon.
// An empty tick pins an event on every boundary, so a quiet stretch still
// moves the clock and the stop predicate is polled at fixed virtual times.
func stepRun(env *des.Env, step time.Duration, horizon des.Time, stop func() bool) error {
	for !stop() && env.Now() < horizon {
		next := env.Now().Add(step)
		if next > horizon {
			next = horizon
		}
		env.ScheduleFunc(next, func() {})
		if err := env.RunUntil(next); err != nil {
			return err
		}
	}
	return nil
}

// phase runs fn in a simulated process until it returns and reports the
// host seconds it took. Daemons already running do their share of work in
// the meantime; that is part of the phase's cost.
func (r *Rig) phase(name string, fn func(p *des.Proc) error) (float64, error) {
	t0 := time.Now()
	var done bool
	var err error
	r.env.Spawn("bench."+name, func(p *des.Proc) {
		defer func() { done = true }()
		err = fn(p)
	})
	if e := stepRun(r.env, time.Millisecond, r.env.Now().Add(10*time.Second), func() bool { return done }); e != nil {
		return 0, e
	}
	if !done {
		return 0, fmt.Errorf("set-up phase %s did not finish within 10s of virtual time", name)
	}
	if err != nil {
		return 0, fmt.Errorf("set-up phase %s: %w", name, err)
	}
	return time.Since(t0).Seconds(), nil
}

// Setup boots the topology, builds and warms the tree, and attaches the
// chains or standbys, timing each phase in host seconds.
func (r *Rig) Setup(res *RepResult) error {
	w := r.w
	t0 := time.Now()
	r.env = des.NewEnv()
	r.env.Seed(r.seed)
	if r.tr != nil {
		r.env.SetTracer(r.tr)
	}
	var opts []cluster.Option
	if w.Lossy {
		r.eng = faults.NewEngine(r.env, mixedCampaign(r.seed))
		opts = append(opts, cluster.WithFaultEngine(r.eng))
	}
	extra := shards * w.Replicas
	if w.Lossy {
		extra = shards
	}
	laneBase := shards + extra
	nodes := laneBase + lanes
	watcher := nodes // the failover watcher's node, under the campaign
	if w.Lossy {
		nodes++
	}
	for i := 0; i < laneBase; i++ {
		r.serving = append(r.serving, i)
	}
	r.cl = cluster.New(r.env, &model.Default, nodes, opts...)
	mgrs := make([]*rmem.Manager, nodes)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(r.cl.Nodes[i])
	}
	for i := 0; i < shards; i++ {
		r.eng.OnRecover(i, mgrs[i].Restart) // a rebooted primary fences its old descriptors
	}
	r.ten = tenants(w.MicroWrite)

	_, err := r.phase("tree", func(p *des.Proc) error {
		var sopts []dfs.ServerOption
		if w.Lossy {
			sopts = append(sopts, dfs.WithReliableReplies())
		}
		r.svc = shard.NewService(p, mgrs[:shards], nodes, dfs.Geometry{}, sopts...)
		if err := r.buildTree(); err != nil {
			return err
		}
		copts := []shard.ClerkOption{shard.WithTokenCache()}
		if w.Lossy {
			copts = append(copts, shard.WithSubOptions(dfs.WithReliable(), dfs.WithFencing()))
		}
		r.clerks = make([]*shard.Clerk, lanes)
		for i := range r.clerks {
			r.clerks[i] = shard.NewClerk(p, mgrs[laneBase+i], r.svc, dfs.DX, copts...)
		}
		shard.ConnectTokenPeers(p, r.clerks...)
		return nil
	})
	if err != nil {
		return err
	}
	res.TreeS = time.Since(t0).Seconds() // topology boot plus the tree phase
	attachS, err := r.phase("attach", func(p *des.Proc) error {
		for slot := 0; slot < shards; slot++ {
			switch {
			case w.Replicas > 0:
				members := mgrs[shards+slot*w.Replicas : shards+(slot+1)*w.Replicas]
				if err := r.svc.AttachReplicas(p, slot, members, w.Interval); err != nil {
					return err
				}
			case w.Lossy:
				r.svc.ArmFailover(p, slot, mgrs[shards+slot], mgrs[watcher], w.Interval)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.AttachS = attachS
	res.ConvergeS, err = r.phase("converge", func(p *des.Proc) error {
		for tries := 0; w.Replicas > 0; tries++ {
			if r.converged() {
				return nil
			}
			if tries == 1000 {
				return fmt.Errorf("replica chains did not converge")
			}
			p.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if w.Lossy && r.env.Now() >= des.Time(mixedCampaign(0).Crashes[0].At) {
		return fmt.Errorf("set-up ran to %v, past the campaign's crash", r.env.Now())
	}
	res.SetupS = time.Since(t0).Seconds()
	return nil
}

func (r *Rig) converged() bool {
	for slot := 0; slot < shards; slot++ {
		lo, hi := ^uint64(0), uint64(0)
		for _, cr := range r.svc.Replicas(slot) {
			a := cr.Applied()
			lo, hi = min(lo, a), max(hi, a)
		}
		if lo != hi || lo == 0 {
			return false
		}
	}
	return true
}

// buildTree writes Dirs×PerDir files of 8–16 KB (zeros: the oracle's
// version 0) plus one symlink per directory into the shared store, and
// warms every record into its owning shard.
func (r *Rig) buildTree() error {
	st, t := r.svc.Store, &r.tree
	for d := 0; d < r.w.Dirs; d++ {
		dirPath := fmt.Sprintf("/export/vol%d", d)
		for f := 0; f < r.w.PerDir; f++ {
			name := fmt.Sprintf("obj%03d", f)
			h, err := st.WriteFile(dirPath+"/"+name, make([]byte, 8192+(f%2)*8192))
			if err != nil {
				return err
			}
			t.files = append(t.files, h)
			t.names = append(t.names, name)
		}
		dh, _, err := st.ResolvePath(dirPath)
		if err != nil {
			return err
		}
		target := dirPath + "/obj000"
		lh, _, err := st.Symlink(dh, "latest", target)
		if err != nil {
			return err
		}
		t.dirs = append(t.dirs, dh)
		t.links = append(t.links, lh)
		t.targets = append(t.targets, target)
		if err := r.svc.WarmDir(dh); err != nil {
			return err
		}
		if err := r.svc.WarmFile(lh); err != nil {
			return err
		}
	}
	for _, h := range t.files {
		if err := r.svc.WarmFile(h); err != nil {
			return err
		}
	}
	r.oracle = newOracle(len(t.files))
	return nil
}

// apply executes one arrival on a lane's clerk and checks what comes back.
func (r *Rig) apply(p *des.Proc, c *shard.Clerk, id int, o *opRec) error {
	t := &r.tree
	f := t.files[o.File]
	d := o.File / r.w.PerDir
	switch o.Act {
	case actGetAttr:
		_, err := c.GetAttr(p, f)
		return err
	case actLookup:
		h, _, err := c.Lookup(p, t.dirs[d], t.names[o.File])
		if err == nil && h != f {
			o.wrong = true
			r.oracle.Failf("op %d lookup %q in dir %d returned %v, want %v", id, t.names[o.File], d, h, f)
		}
		return err
	case actRead:
		data, err := c.Read(p, f, 0, o.Size)
		if err == nil {
			o.wrong = !r.oracle.CheckRead(id, o.File, o.svc, data)
		}
		return err
	case actNull:
		return c.Null(p)
	case actReadLink:
		s, err := c.ReadLink(p, t.links[d])
		if err == nil && s != t.targets[d] {
			o.wrong = true
			r.oracle.Failf("op %d readlink in dir %d returned %q, want %q", id, d, s, t.targets[d])
		}
		return err
	case actReadDir:
		_, err := c.ReadDir(p, t.dirs[d], 0, o.Size)
		return err
	case actStatFS:
		_, err := c.StatFS(p)
		return err
	case actWrite:
		v, buf := r.oracle.BeginWrite(o.File, o.Size, p.Now())
		err := c.Write(p, f, 0, buf)
		if err == nil {
			r.oracle.EndWrite(o.File, v, p.Now())
		}
		return err
	case actOther:
		a, err := c.GetAttr(p, f)
		if err != nil {
			return err
		}
		_, err = c.SetAttr(p, f, a.Mode, a.Size)
		return err
	}
	return fmt.Errorf("unknown activity %d", o.Act)
}

// counters is a point-in-time copy of the layers' public stats.
type counters struct {
	cells, frames, events int64
	shard                 shard.Stats
	misses, chainPushes   int64
	chainAborts, mirrored int64
	tokens                map[string]int64
}

var tokenFields = []string{"WriteAcquires", "RevokesSent", "Invalidations", "ChainRecalls"}

// tokenStats sums the clerks' token-client counters. shard.Clerk keeps
// its tokens.RWClient per slot in an unexported field, so the benchmark
// reads them by reflection; nil means the field is gone (reported as -1).
func tokenStats(clerks []*shard.Clerk) map[string]int64 {
	out := map[string]int64{}
	for _, c := range clerks {
		rw := reflect.ValueOf(c).Elem().FieldByName("rw")
		if !rw.IsValid() || rw.Kind() != reflect.Slice {
			return nil
		}
		for i := 0; i < rw.Len(); i++ {
			e := rw.Index(i)
			if e.Kind() != reflect.Pointer || e.IsNil() {
				continue
			}
			for _, name := range tokenFields {
				f := e.Elem().FieldByName(name)
				if !f.IsValid() || !f.CanInt() {
					return nil
				}
				out[name] += f.Int()
			}
		}
	}
	return out
}

func (r *Rig) snapshot(servers map[*dfs.Server]bool) counters {
	var c counters
	for _, n := range r.cl.Nodes {
		c.cells += n.NIC.CellsSent
		c.frames += n.FramesSent
	}
	c.events = int64(r.env.Events())
	for _, k := range r.clerks {
		s := k.Stats()
		c.shard.TokenHits += s.TokenHits
		c.shard.RouteRetries += s.RouteRetries
		c.shard.ReplicaReads += s.ReplicaReads
		c.shard.ReplicaFallbacks += s.ReplicaFallbacks
	}
	for _, s := range r.svc.Shards {
		if s != nil {
			servers[s] = true
		}
	}
	for s := range servers {
		c.misses += s.MissCalls
		c.chainPushes += s.ChainPushes
		c.chainAborts += s.ChainAborts
		c.mirrored += s.Mirrored
	}
	c.tokens = tokenStats(r.clerks)
	return c
}

// Run drives the arrival window and drains until every op is accounted
// for or the horizon passes, then fills res.
func (r *Rig) Run(res *RepResult) error {
	w, env := r.w, r.env
	arr := arrivals(w, r.ten, len(r.tree.files), r.seed)
	ops := make([]opRec, len(arr))
	start := env.Now()
	for i := range ops {
		ops[i].Arrival = arr[i]
		ops[i].sched = start.Add(arr[i].At)
	}
	for _, n := range r.serving {
		r.cl.Nodes[n].ResetCPUAcct()
	}
	r.tr.Reset()
	servers := map[*dfs.Server]bool{}
	before := r.snapshot(servers)
	r.primaries = map[int]bool{}
	for i := 0; i < shards; i++ {
		r.primaries[r.svc.NodeOf(i)] = true
	}

	var queue []int
	wq := des.NewWaitQueue(env)
	var dispatched bool
	accounted := 0
	var genLate des.Duration
	env.Spawn("bench.dispatch", func(p *des.Proc) {
		for i := range ops {
			o := &ops[i]
			if o.sched > p.Now() {
				p.Sleep(o.sched.Sub(p.Now()))
			}
			genLate = max(genLate, p.Now().Sub(o.sched))
			if len(queue) >= maxQueue {
				o.shed = true
				accounted++
				continue
			}
			queue = append(queue, i)
			wq.WakeOne()
		}
		dispatched = true
		wq.WakeAll()
	})
	for l := 0; l < lanes; l++ {
		c := r.clerks[l]
		env.Spawn(fmt.Sprintf("bench.lane%d", l), func(p *des.Proc) {
			for {
				if len(queue) == 0 {
					if dispatched {
						return
					}
					wq.Wait(p)
					continue
				}
				id := queue[0]
				queue = queue[1:]
				o := &ops[id]
				o.pick = p.Now()
				if o.Straggler {
					p.Sleep(stragglerDelay)
				}
				o.svc = p.Now()
				o.err = r.apply(p, c, id, o)
				o.end = p.Now()
				o.done = true
				accounted++
			}
		})
	}
	t0 := time.Now()
	horizon := start.Add(w.Window + drainHorizon)
	err := stepRun(env, time.Millisecond, horizon, func() bool { return dispatched && accounted == len(ops) })
	res.WallS = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	end := env.Now()
	after := r.snapshot(servers)
	for i := 0; i < shards; i++ {
		r.primaries[r.svc.NodeOf(i)] = true // a standby that took over
	}
	r.collect(res, ops, start, end, before, after)
	res.Layers["lanes.gen_late_max_ms"] = ms(genLate)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// interquartileMean is the mean of sorted xs between their first and
// third quartiles. Unlike the median it does not sit on one modelled cost:
// when over a quarter of the ops cost the same (a clerk-cache hit, say),
// the median reads that exact cost at every seed.
func interquartileMean(xs []float64) float64 {
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	if len(mid) == 0 {
		return 0
	}
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(float64(len(xs))*q+0.999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

var shardOps = map[Activity]string{actRead: "read", actWrite: "write", actGetAttr: "getattr",
	actLookup: "lookup", actReadDir: "readdir"}

func (r *Rig) collect(res *RepResult, ops []opRec, start, end des.Time, b, a counters) {
	L := res.Layers
	var lat, qwait []float64
	svcLat := map[string][]float64{}
	var busy des.Duration
	met, reads := 0, 0
	res.FailCauses = map[string]int{}
	for i := range ops {
		o := &ops[i]
		switch {
		case o.shed:
			res.Shed++
			continue
		case !o.done:
			res.Unfinished++
			if o.pick > 0 {
				busy += end.Sub(o.pick)
			}
			continue
		}
		qwait = append(qwait, ms(o.pick.Sub(o.sched)))
		busy += o.end.Sub(o.pick)
		if o.err != nil {
			res.Failed++
			res.FailCauses[o.Act.String()+": "+o.err.Error()]++
			continue
		}
		if o.Act == actRead {
			reads++
		}
		if o.wrong {
			res.Wrong++
			continue
		}
		res.Completed++
		l := o.end.Sub(o.sched)
		lat = append(lat, ms(l))
		if l <= r.ten[o.Tenant].Deadline {
			met++
		}
		if name, ok := shardOps[o.Act]; ok {
			svcLat[name] = append(svcLat[name], ms(o.end.Sub(o.svc)))
		}
	}
	res.Offered = len(ops)
	sort.Float64s(lat)
	sort.Float64s(qwait)
	done := float64(max(res.Completed, 1))

	var cpu, primaries time.Duration
	cats := map[string]time.Duration{}
	for _, n := range r.serving {
		for cat, d := range r.cl.Nodes[n].CPUAcct {
			cpu += d
			cats[cat] += d
			if r.primaries[n] {
				primaries += d
			}
		}
	}
	res.Met, res.CPUUs = met, float64(cpu)/1e3
	res.Virtual = map[string]float64{
		"p50_ms":               quantile(lat, 0.50),
		"iqm_ms":               interquartileMean(lat),
		"p99_ms":               quantile(lat, 0.99),
		"slo_attainment":       float64(met) / float64(len(ops)),
		"failed_frac":          float64(res.lost()) / float64(len(ops)),
		"server_cpu_us_per_op": float64(cpu) / 1e3 / done,
	}
	res.Events = a.events - b.events

	L["lanes.qwait_p50_ms"] = quantile(qwait, 0.50)
	L["lanes.qwait_p99_ms"] = quantile(qwait, 0.99)
	L["lanes.busy_frac"] = float64(busy) / float64(lanes) / float64(end.Sub(start))
	L["lanes.shed"] = float64(res.Shed)
	for _, name := range []string{"read", "write", "getattr", "lookup", "readdir"} {
		xs := svcLat[name]
		sort.Float64s(xs)
		L["shard."+name+".count"] = float64(len(xs))
		L["shard."+name+".p50_ms"] = quantile(xs, 0.50)
		L["shard."+name+".p99_ms"] = quantile(xs, 0.99)
	}
	L["shard.busy_frac"] = float64(primaries) / shards / float64(end.Sub(start))
	L["shard.token_hit_frac"] = float64(a.shard.TokenHits-b.shard.TokenHits) / float64(max(reads, 1))
	L["oracle.reads_completed"] = float64(reads)
	L["oracle.wrong_results"] = float64(res.Wrong)
	L["ops.failed_frac"] = res.Virtual["failed_frac"]
	L["ops.p50_ms"] = res.Virtual["p50_ms"]
	rr := a.shard.ReplicaReads - b.shard.ReplicaReads
	rf := a.shard.ReplicaFallbacks - b.shard.ReplicaFallbacks
	L["shard.replica_hit_frac"] = float64(rr) / float64(max(rr+rf, 1))
	L["shard.route_retries"] = float64(a.shard.RouteRetries - b.shard.RouteRetries)
	for _, f := range tokenFields {
		key := "tokens." + snake(f)
		if a.tokens == nil || b.tokens == nil {
			L[key] = -1
			continue
		}
		L[key] = float64(a.tokens[f] - b.tokens[f])
	}
	L["dfs.miss_calls_per_op"] = float64(a.misses-b.misses) / done
	for _, cat := range []string{cluster.CatRx, cluster.CatControl, cluster.CatProc, cluster.CatReply} {
		L["dfs.cpu_us_per_op."+cat] = float64(cats[cat]) / 1e3 / done
	}
	L["dfs.chain_pushes"] = float64(a.chainPushes - b.chainPushes)
	L["dfs.chain_aborts"] = float64(a.chainAborts - b.chainAborts)
	L["dfs.mirrored"] = float64(a.mirrored - b.mirrored)
	L["atm.cells_per_op"] = float64(a.cells-b.cells) / done
	L["cluster.frames_per_op"] = float64(a.frames-b.frames) / done
	for _, k := range faultKinds {
		L["faults.injected."+k] = float64(r.eng.Injected(k))
	}
	// The switch's hop pumps count no drops of their own: every cell the
	// fabric lost was dropped on the fault engine's verdict.
	var dropped int64
	for _, k := range []string{faults.KindLoss, faults.KindFlap, faults.KindOverflow, faults.KindPartition} {
		dropped += r.eng.Injected(k)
	}
	L["atm.cells_dropped"] = float64(dropped)
	var failovers, aborted float64
	var mttr time.Duration
	for _, c := range r.svc.Coordinators() {
		if c == nil {
			continue
		}
		if c.Restored() {
			failovers++
			mttr = max(mttr, c.MTTR())
		}
		if c.Aborted() {
			aborted++
		}
	}
	L["recovery.failovers"] = failovers
	L["recovery.mttr_ms"] = ms(mttr)
	L["recovery.aborted"] = aborted
	L["oracle.reads_checked"] = float64(r.oracle.Checked)

	if r.tr != nil {
		snap := r.tr.Snapshot()
		for _, k := range []string{"read", "write", "cas"} {
			L["rmem."+k+".issued"] = float64(snap.Counter("rmem." + k + ".issued"))
			L["rmem."+k+".nacked"] = float64(snap.Counter("rmem." + k + ".nacked"))
			// A WRITE completes locally; READ and CAS wait for the reply.
			hist := "rmem." + k + ".latency"
			if k == "write" {
				hist = "rmem.write.issue"
			}
			h, _ := snap.Hist(hist)
			L["rmem."+k+".latency_p99_us"] = float64(h.P99) / 1e3
		}
		L["reliable.retries_per_op"] = float64(snap.Counter("reliable.retries")) / done
		L["reliable.giveups"] = float64(snap.Counter("reliable.giveup"))
		h, _ := snap.Hist("reliable.recovery")
		L["reliable.recovery_p99_ms"] = ms(h.P99)
	}

	res.Fingerprint = fingerprint(ops, res)
	res.Violations = r.oracle.Violations
}

var faultKinds = []string{faults.KindLoss, faults.KindCorrupt, faults.KindDup, faults.KindReorder,
	faults.KindCrash, faults.KindRecover}

// snake turns a Go field name into the metric spelling: WriteAcquires →
// write_acquires.
func snake(s string) string {
	var b strings.Builder
	for i, c := range s {
		if c >= 'A' && c <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteRune(c)
	}
	return b.String()
}
