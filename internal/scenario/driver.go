package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/fstore"
	"netmem/internal/recovery"
	"netmem/internal/workload"
)

// Leg horizons. A rig whose daemons never idle (heartbeats, watchdogs,
// mirrors, leases) needs a finite horizon; an idle rig keeps the long one
// and returns as soon as its event queue drains.
const (
	daemonHorizon = 3 * time.Second
	idleHorizon   = 120 * time.Second
	// stepSettle is how long a stepped leg keeps running once the mix is
	// done, for in-flight chain acks and a failover coordinator's tail.
	stepSettle = 100 * time.Millisecond
)

// spec is one topology's data: where its legs sit in virtual time and how
// they run. The hooks live on the rig each leg builds.
type spec struct {
	// build sizes the leg's cluster (l.nodes) and returns its rig.
	build func(l *leg) rig
	// warm is the warm file's byte i.
	warm func(i int) byte
	// anchor ends the setup run; the mix starts lead later. Campaign
	// windows are keyed to virtual time, so the anchor lands them inside
	// the measured run no matter how quickly warm-up drained.
	anchor, lead time.Duration
	// pace spaces op starts (0: back to back).
	pace time.Duration
	// hold keeps the measured window open this long past each crash.
	hold time.Duration
	// blind replays failed ops without a coordinator to wait on.
	blind bool
	// idle marks rigs that run no daemons unless the campaign crashes a
	// node: without a crash schedule their legs get idleHorizon.
	idle bool
	// step, when set, runs the leg in slices of this size and stops once
	// the mix is done (plus stepSettle): chain daemons would otherwise
	// simulate millions of wakeups past the last useful event.
	step time.Duration
}

// rig is one leg's topology. The driver calls setup inside the setup
// process; the rest are hooks around the mix, defaulted by hooks.
type rig interface {
	// setup boots the file service, hands the clerk and store to
	// leg.warm, and arms any daemons.
	setup(p *des.Proc) error
	// written returns the deposit counter of the server that writes to h
	// land on, and the clerk's call timeout toward it.
	written(h fstore.Handle) (deposits func() int64, timeout time.Duration)
	// sync applies every server's write-behind state to the store.
	sync(p *des.Proc) error
	// coordinator is the recovery coordinator whose failover can unblock
	// a replay of op (nil: none).
	coordinator(op dfs.OpSpec) *recovery.Coordinator
	// coordinators lists every recovery coordinator, for the result's
	// failover accounting.
	coordinators() []*recovery.Coordinator
	// spawn starts side processes once setup has settled.
	spawn()
	// beforeMix runs in the mix process after the anchor, before the
	// window opens.
	beforeMix(p *des.Proc)
	// afterMix audits (untimed) once the window has closed.
	afterMix(p *des.Proc) error
	// report fills the rig's evidence block; base is the baseline leg's rig.
	report(res *Result, base rig)
}

// hooks supplies the optional rig hooks as no-ops.
type hooks struct{}

func (hooks) spawn()                   {}
func (hooks) beforeMix(*des.Proc)      {}
func (hooks) afterMix(*des.Proc) error { return nil }
func (hooks) report(*Result, rig)      {}

// leg is one measured run of the mix: the simulated machines plus
// everything the driver observed.
type leg struct {
	spec     *spec
	cfg      *Config
	camp     *faults.Campaign // nil: the fault-free baseline
	failover bool             // the campaign has a crash schedule (both legs)
	rig      rig

	*machines
	nodes int

	// The Figure 2 tree and the clerk the mix runs through.
	fs              workload.FileAPI
	store           *fstore.Store
	file, dir, link fstore.Handle

	ops     []OpResult
	window  time.Duration
	replays int64
	events  uint64
	sched   des.Counters
	mixDone bool
	err     error // an audit failure, reported after the run
}

// runLeg boots one leg of cfg's topology and runs the mix on it; camp is
// nil for the fault-free baseline.
func runLeg(cfg *Config, camp *faults.Campaign) (*leg, error) {
	s := &specs[cfg.Topology]
	l := &leg{spec: s, cfg: cfg, camp: camp, failover: len(cfg.Campaign.Crashes) > 0}
	l.rig = s.build(l)
	l.machines = boot(bootSpec{nodes: l.nodes, seed: cfg.Seed, trace: true, camp: camp})
	if err := l.setupTo(des.Time(s.anchor), l.rig.setup); err != nil {
		return nil, err
	}
	if cfg.wrap != nil {
		l.fs = cfg.wrap(l.fs)
	}
	l.rig.spawn()
	l.ops = make([]OpResult, len(dfs.Figure2Ops))
	for i, op := range dfs.Figure2Ops {
		l.ops[i] = OpResult{Label: op.Label, Err: "not reached before the horizon"}
	}
	l.env.Spawn("chaos.mix", l.mix)

	var err error
	switch {
	case s.step > 0:
		err = l.env.RunSteps(s.step, des.Time(daemonHorizon), func() bool { return l.mixDone })
		if err == nil && l.mixDone {
			err = l.env.RunUntil(l.env.Now().Add(stepSettle))
		}
	case s.idle && !l.failover:
		err = l.env.RunUntil(des.Time(idleHorizon))
	default:
		err = l.env.RunUntil(des.Time(daemonHorizon))
	}
	if err != nil {
		return nil, err
	}
	if l.err != nil {
		return nil, l.err
	}
	l.events = l.env.Events()
	l.sched = l.env.Counters()
	return l, nil
}

// mix runs the twelve operations sequentially, replaying failures.
func (l *leg) mix(p *des.Proc) {
	s := l.spec
	sleepUntil(p, des.Time(s.anchor+s.lead))
	l.rig.beforeMix(p)
	start := p.Now()
	for i, op := range dfs.Figure2Ops {
		sleepUntil(p, start.Add(time.Duration(i)*s.pace))
		l.ops[i] = l.verify(p, op)
		// A failed op either died in an outage window or exhausted its
		// retransmission budget against ongoing link faults. Park until
		// the coordinator that can unblock it finishes any failover in
		// progress, then replay a bounded number of times — the
		// reliability layer's dedup window makes replays idempotent even
		// if an earlier attempt half-landed.
		rec := l.rig.coordinator(op)
		for tries := 0; !l.ops[i].OK && (rec != nil || s.blind) && tries < 3; tries++ {
			if rec != nil {
				if err := rec.AwaitRestored(p, time.Second); err != nil {
					break
				}
			}
			l.replays++
			l.ops[i] = l.verify(p, op)
		}
	}
	if s.hold > 0 && l.camp != nil {
		for _, c := range l.camp.Crashes {
			sleepUntil(p, des.Time(c.At+s.hold))
		}
	}
	l.window = time.Duration(p.Now().Sub(start))
	l.mixDone = true
	l.err = l.rig.afterMix(p)
}

// warm records the clerk the mix runs through and the store it verifies
// against, then populates the store with the Figure 2/3 tree — a 16K
// file, a directory with ≥4K of serialized entries, a symlink — and warms
// every record into its server's cache.
func (l *leg) warm(fs workload.FileAPI, st *fstore.Store, srv workload.Warmer) error {
	l.fs, l.store = fs, st
	data := make([]byte, 16384)
	for i := range data {
		data[i] = l.spec.warm(i)
	}
	h, err := st.WriteFile("/export/data.bin", data)
	if err != nil {
		return err
	}
	l.file = h
	for i := 0; i < 260; i++ {
		if _, err := st.WriteFile(fmt.Sprintf("/export/pub/entry%03d", i), nil); err != nil {
			return err
		}
	}
	if l.dir, _, err = st.ResolvePath("/export/pub"); err != nil {
		return err
	}
	exp, _, err := st.ResolvePath("/export")
	if err != nil {
		return err
	}
	if l.link, _, err = st.Symlink(exp, "current", "/export/data.bin"); err != nil {
		return err
	}
	for _, wh := range []fstore.Handle{l.file, l.link} {
		if err := srv.WarmFile(wh); err != nil {
			return err
		}
	}
	if err := srv.WarmDir(exp); err != nil {
		return err
	}
	return srv.WarmDir(l.dir)
}

// verify executes one mix operation and checks its result bytes against
// the store's ground truth.
func (l *leg) verify(p *des.Proc, op dfs.OpSpec) OpResult {
	res := OpResult{Label: op.Label}
	fail := func(err error) OpResult {
		res.Err = err.Error()
		res.Chaos = 0
		return res
	}
	dx := l.cfg.Mode == dfs.DX
	// Writes establish DX block ownership with an untimed read, as a real
	// clerk would have; reads measure the network path, so flush first.
	if op.Op == dfs.OpWrite && dx {
		blocks := (op.Size + fstore.BlockSize - 1) / fstore.BlockSize
		if _, err := l.fs.Read(p, l.file, 0, blocks*fstore.BlockSize); err != nil {
			return fail(fmt.Errorf("ownership read: %w", err))
		}
	} else {
		l.fs.FlushLocal()
	}

	start := p.Now()
	if op.Op != dfs.OpWrite {
		if err := l.check(p, op); err != nil {
			return fail(err)
		}
		res.Chaos = time.Duration(p.Now().Sub(start))
		res.OK = true
		return res
	}
	payload := writePattern(op.Size)
	deposits, timeout := l.rig.written(l.file)
	before := deposits()
	if err := l.fs.Write(p, l.file, 0, payload); err != nil {
		return fail(err)
	}
	if dx {
		// Bounded: a crash between the deposit and this observation swaps
		// the server for its promoted successor, whose counter may never
		// advance — fail the op and let the replay path settle it.
		deadline := p.Now().Add(timeout)
		for deposits() == before {
			if p.Now() > deadline {
				return fail(errors.New("write deposit not observed"))
			}
			p.Sleep(2 * time.Microsecond)
		}
	}
	res.Chaos = time.Duration(p.Now().Sub(start))
	// Verification (untimed): apply the write-behind state and read the
	// store back — the full §3.1 deposit path, end to end.
	if err := l.rig.sync(p); err != nil {
		return fail(err)
	}
	got, err := l.store.Read(l.file, 0, op.Size)
	if err != nil {
		return fail(err)
	}
	if !bytes.Equal(got, payload) {
		return fail(errors.New("written bytes did not reach the store intact"))
	}
	res.OK = true
	return res
}

// check runs one read-side operation and compares its result with the
// store's.
func (l *leg) check(p *des.Proc, op dfs.OpSpec) error {
	st := l.store
	switch op.Op {
	case dfs.OpGetAttr:
		a, err := l.fs.GetAttr(p, l.file)
		if err != nil {
			return err
		}
		want, err := st.GetAttr(l.file)
		if err != nil {
			return err
		}
		if a.Size != want.Size || a.Type != want.Type {
			return fmt.Errorf("attr mismatch: got size %d, want %d", a.Size, want.Size)
		}
	case dfs.OpLookup:
		h, _, err := l.fs.Lookup(p, l.dir, "entry007")
		if err != nil {
			return err
		}
		want, _, err := st.Lookup(l.dir, "entry007")
		if err != nil {
			return err
		}
		if h != want {
			return errors.New("lookup handle mismatch")
		}
	case dfs.OpReadLink:
		target, err := l.fs.ReadLink(p, l.link)
		if err != nil {
			return err
		}
		if target != "/export/data.bin" {
			return fmt.Errorf("readlink returned %q", target)
		}
	case dfs.OpRead:
		data, err := l.fs.Read(p, l.file, 0, op.Size)
		if err != nil {
			return err
		}
		want, err := st.Read(l.file, 0, op.Size)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, want) {
			return errors.New("read returned wrong bytes")
		}
	case dfs.OpReadDir:
		data, err := l.fs.ReadDir(p, l.dir, 0, op.Size)
		if err != nil {
			return err
		}
		ents, err := st.ReadDir(l.dir)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, dfs.SerializeDir(ents)[:op.Size]) {
			return errors.New("readdir returned wrong bytes")
		}
	}
	return nil
}

// writePattern is the write payload, distinguishable from every warm
// pattern so a lost or misdeposited write cannot be masked by
// pre-existing bytes.
func writePattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 129)
	}
	return b
}
