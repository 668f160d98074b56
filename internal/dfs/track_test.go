package dfs

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/fstore"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// The replication daemons visit only buckets their write trackers marked.
// The tracker oracle below is the full-area diff they used to run on every
// pass: after each pass it lists every bucket the diff would push and fails
// if one of them is not marked, since an unmarked bucket is never visited
// again. It runs over every store path that feeds the daemons: clerk
// deposits, Sync, a resize's refreshCachedBlocks, MigrateBuckets' clear,
// write-grant recall markers (including a push the recall aborts), a
// failed mirror push, a failed relay that splices the chain, and the
// re-chain under a promoted member.

// oracleMirror lists the buckets the mirror's full-area diff would push.
func oracleMirror(s *Server) []int {
	buf := s.data.Bytes()
	var out []int
	for b := 0; b < s.Geo.DataBuckets; b++ {
		lo := b * dataStride
		cur, old := buf[lo:lo+dataStride], s.shadow[lo:lo+dataStride]
		if binary.BigEndian.Uint32(cur) != flagDirty && binary.BigEndian.Uint32(old) != flagDirty {
			continue
		}
		if !bytes.Equal(cur, old) {
			out = append(out, b)
		}
	}
	return out
}

// oracleChain lists the buckets the chain pass's full-area diff would push.
func oracleChain(s *Server) []int {
	buf, st := s.data.Bytes(), s.chainState.Bytes()
	var out []int
	for b := 0; b < s.Geo.DataBuckets; b++ {
		entry := st[ChainStateVerOff(b):]
		r := binary.BigEndian.Uint32(entry[ChainStateROff:])
		d := binary.BigEndian.Uint32(entry[ChainStateDOff:])
		cc := binary.BigEndian.Uint32(entry[chainStateCOff:])
		lo := b * dataStride
		if r == d && (cc != r || !bytes.Equal(buf[lo:lo+dataStride], s.chainShadow[lo:lo+dataStride])) {
			out = append(out, b)
		}
	}
	return out
}

// oracleForward lists the slots the forwarder's full scan would relay.
func oracleForward(cr *ChainReplica) []int {
	buf := cr.seg.Bytes()
	var out []int
	for b := 0; b < cr.geo.DataBuckets; b++ {
		frame := buf[chainHdr+b*chainStride : chainHdr+(b+1)*chainStride]
		head := binary.BigEndian.Uint64(frame[4:])
		tail := binary.BigEndian.Uint64(frame[chainStride-8:])
		if binary.BigEndian.Uint32(frame) == 0 && head != 0 && head == tail && head%2 == 0 && head != cr.shadowVer[b] {
			out = append(out, b)
		}
	}
	return out
}

// trackerOracle checks every pass of the watched daemons.
type trackerOracle struct {
	t       *testing.T
	passes  map[string]int // passes checked, per daemon kind
	pending map[string]int // would-push buckets found marked for the next pass
}

func (o *trackerOracle) check(kind string, at des.Time, want []int, marked func(b int) bool) {
	o.passes[kind]++
	for _, b := range want {
		if !marked(b) {
			o.t.Errorf("%s pass at %v: bucket %d differs from its shadow but is not marked", kind, at, b)
			continue
		}
		o.pending[kind]++
	}
}

func (o *trackerOracle) watchServer(s *Server) {
	s.onPass = func(kind string) {
		at := s.m.Node.Env.Now()
		switch kind {
		case "mirror":
			o.check(kind, at, oracleMirror(s), s.mirrorTrk.Marked)
		case "chain":
			o.check(kind, at, oracleChain(s), func(b int) bool { return s.chainTrk.Marked(b) || s.stateTrk.Marked(b) })
		}
	}
}

func (o *trackerOracle) watchMember(cr *ChainReplica) {
	cr.onPass = func() { o.check("forward", cr.m.Node.Env.Now(), oracleForward(cr), cr.trk.Marked) }
}

func TestTrackerOracle(t *testing.T) {
	const interval = 100 * time.Microsecond
	geo := Geometry{DataBuckets: 16}
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 7)
	mgrs := make([]*rmem.Manager, 7)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(cl.Nodes[i])
	}
	o := &trackerOracle{t: t, passes: map[string]int{}, pending: map[string]int{}}

	var (
		srv     *Server
		clerk   *Clerk
		members []*ChainReplica
		files   []fstore.Handle
	)
	env.Spawn("setup", func(p *des.Proc) {
		// Reliable replies make the mirror's pushes acknowledged, so a
		// dead standby fails them instead of swallowing them.
		srv = NewServer(p, mgrs[0], 7, geo, WithReliableReplies())
		for _, name := range []string{"/a", "/b", "/c"} {
			h, err := srv.Store.WriteFile(name, patterned(2*fstore.BlockSize))
			if err != nil {
				t.Error(err)
				return
			}
			if err := srv.WarmFile(h); err != nil {
				t.Error(err)
				return
			}
			files = append(files, h)
		}
		clerk = NewClerk(p, mgrs[1], srv, DX)
		o.watchServer(srv)
		// A repeated attach keeps the mirror's tracker (and its daemon).
		sb := NewStandby(p, mgrs[2], geo)
		srv.AttachStandby(p, sb, interval)
		mirrorTrk := srv.mirrorTrk
		srv.AttachStandby(p, sb, interval)
		if srv.mirrorTrk != mirrorTrk {
			t.Error("re-attaching the standby registered a second tracker")
		}
		for _, m := range mgrs[3:6] {
			cr := NewChainReplica(p, m, geo)
			o.watchMember(cr)
			members = append(members, cr)
		}
		if err := srv.AttachChain(p, 1, members, interval); err != nil {
			t.Error(err)
		}
		// A failed relay splices the dead member out, as the shard tier's
		// splice hook does: re-chain the live members under a new epoch.
		for _, cr := range members {
			cr.OnSplice(func(p *des.Proc) {
				var live []*ChainReplica
				for _, m := range members {
					if !m.Node().Failed() {
						live = append(live, m)
					}
				}
				if err := srv.AttachChain(p, 2, live, interval); err != nil {
					t.Error(err)
				}
			})
		}
	})

	env.Spawn("test", func(p *des.Proc) {
		p.Sleep(50 * time.Millisecond) // chain converges on the warm blocks
		h := files[0]
		b := geo.DataBucket(h, 0)
		write := func(what string, fill byte) {
			if err := clerk.Write(p, h, 0, bytes.Repeat([]byte{fill}, fstore.BlockSize)); err != nil {
				t.Errorf("%s: %v", what, err)
			}
		}
		settle := func() { p.Sleep(30 * time.Millisecond) }

		// Clerk deposits, then Sync's dirty→valid flips.
		if _, err := clerk.Read(p, h, 0, fstore.BlockSize); err != nil {
			t.Fatal(err)
		}
		write("deposit", 1)
		settle()
		if _, err := srv.Sync(p); err != nil {
			t.Error(err)
		}
		settle()
		// A resize applies the file's write-behind and reloads its cached
		// blocks (refreshCachedBlocks).
		write("deposit before resize", 2)
		if _, err := clerk.SetAttr(p, h, 0o644, fstore.BlockSize+100); err != nil {
			t.Error(err)
		}
		settle()
		// A rebalance moves file c away and clears its buckets.
		moved := files[2]
		if _, cleared, err := srv.MigrateBuckets(p, func(k fstore.Handle) (*rmem.Import, bool) { return nil, k == moved }, true); err != nil || cleared == 0 {
			t.Errorf("MigrateBuckets cleared %d buckets, err %v", cleared, err)
		}
		settle()

		// Write-grant recall markers: R holds the bucket back until the
		// deposit marker D matches it.
		id, gen, size := srv.ChainState()
		state := mgrs[6].Import(p, 0, id, gen, size)
		state.SetReliable(true)
		marker := func(off int, v uint32) {
			var w [4]byte
			binary.BigEndian.PutUint32(w[:], v)
			if err := state.WriteBlock(p, ChainStateVerOff(b)+off, w[:], false); err != nil {
				t.Error(err)
			}
		}
		marker(ChainStateROff, 1)
		pushes := srv.ChainPushes
		write("deposit under recall", 3)
		settle()
		if srv.ChainPushes != pushes {
			t.Errorf("chain pushed %d buckets while a recall was outstanding", srv.ChainPushes-pushes)
		}
		marker(ChainStateDOff, 1)
		settle()
		if srv.ChainPushes == pushes {
			t.Error("deposit marker did not release the recalled bucket")
		}

		// A recall landing while the push is in flight aborts it.
		seq := srv.chainSeq
		write("deposit raced by a recall", 4)
		for srv.chainSeq == seq {
			p.Sleep(10 * time.Microsecond)
		}
		marker(ChainStateROff, 2)
		settle()
		if srv.ChainAborts == 0 {
			t.Error("no chain push was aborted by the racing recall")
		}
		marker(ChainStateDOff, 2)
		settle()

		// A dead standby fails the mirror's pushes; the bucket stays marked.
		cl.Nodes[2].Fail()
		write("deposit with the standby down", 5)
		p.Sleep(400 * time.Millisecond)
		if len(mgrs[0].WriteFaults) == 0 {
			t.Error("no mirror push failed against the dead standby")
		}

		// A dead middle member fails the head's relay; the chain splices,
		// and the re-chain keeps the chain pass's data-area tracker.
		chainTrk := srv.chainTrk
		cl.Nodes[4].Fail()
		write("deposit with a member down", 6)
		p.Sleep(400 * time.Millisecond)
		if members[0].Spliced == 0 {
			t.Error("the head never spliced out the dead member")
		}
		if srv.chainTrk != chainTrk {
			t.Error("the re-chain registered a second data-area tracker")
		}
		if members[2].Applied()>>32 != 2 {
			t.Errorf("tail applied %x, want an epoch-2 frame after the splice", members[2].Applied())
		}

		// The primary dies; the head is promoted and re-chains the tail.
		cl.Nodes[0].Fail()
		srv2, err := members[0].TakeOver(p, srv.Store, 7)
		if err != nil {
			t.Fatal(err)
		}
		o.watchServer(srv2)
		if err := srv2.AttachChain(p, 3, members[2:], interval); err != nil {
			t.Fatal(err)
		}
		clerk.Rebind(p, srv2)
		if _, err := clerk.Read(p, h, 0, fstore.BlockSize); err != nil {
			t.Fatal(err)
		}
		write("deposit on the promoted primary", 7)
		settle()
		if srv2.ChainPushes == 0 {
			t.Error("the promoted primary pushed nothing down the re-chained tail")
		}
		if members[2].Applied()>>32 != 3 {
			t.Errorf("tail applied %x, want an epoch-3 frame after the promotion", members[2].Applied())
		}

		// The last member dies: the primary's own push fails, and the
		// bucket stays marked for the next pass.
		cl.Nodes[5].Fail()
		faults := len(mgrs[3].WriteFaults)
		write("deposit with the chain down", 8)
		p.Sleep(400 * time.Millisecond)
		if len(mgrs[3].WriteFaults) == faults {
			t.Error("no chain push failed against the dead chain")
		}
	})
	if err := env.RunUntil(des.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	t.Logf("passes checked %v, pending buckets seen %v", o.passes, o.pending)
	for _, kind := range []string{"mirror", "chain", "forward"} {
		if o.passes[kind] == 0 || o.pending[kind] == 0 {
			t.Errorf("%s: oracle checked %d passes and saw %d pending buckets; want both > 0",
				kind, o.passes[kind], o.pending[kind])
		}
	}
}
