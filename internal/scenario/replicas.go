package scenario

import (
	"bytes"
	"fmt"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/fstore"
	"netmem/internal/shard"
)

// The read-tier probes and the replica scaling sweep. Each probe measures
// one zero-cost claim on a fresh rig: a token-cached re-read costs the
// servers nothing, and a re-read served by chain members costs the primary
// nothing. The sweep measures what the chain buys under load.

// TokenProbeResult reports what a token-cached re-read cost.
type TokenProbeResult struct {
	Shards      int
	Bytes       int           // bytes re-read
	TokenHits   int64         // blocks served from the client's cache
	ServerCPU   time.Duration // CPU charged on any shard node during the re-read
	RemoteReads int64         // remote reads issued during the re-read
}

// ReplicaProbeResult reports what a replica-served re-read cost the primary.
type ReplicaProbeResult struct {
	Replicas         int
	Bytes            int           // bytes re-read
	ReplicaReads     int64         // block fetches served by chain members
	PrimaryCPU       time.Duration // proc+control+client CPU on the primary
	PrimaryRemoteOps int64         // one-sided ops landed on the primary
}

// probeSize is the file both probes write, warm, and re-read.
const probeSize = 12 * 1024

// reread is one probe's measurement of the re-read, taken on the shard
// primaries (nodes 0..shards-1).
type reread struct {
	tokenHits    int64         // the clerk's token hits after the re-read
	replicaReads int64         // chain-member block fetches by the re-read
	cpu          time.Duration // CPU charged on the primaries, every category
	agreeCPU     time.Duration // ... proc+control+client only
	remoteReads  int64         // remote reads the clerk issued
	remoteOps    int64         // one-sided ops landed on primary segments
}

// rereadProbe runs the steps both probes share on a fresh rig — shard
// primaries on nodes 0..shards-1, the token-caching clerk next, a chain of
// replicas members under shard 0 after: write the pattern, warm it,
// let the chain converge, read it once (acquiring read tokens), drop the
// clerk's cached copies (and with replicas its token-cached blocks too),
// and re-read it byte-checked while the primaries' meters run.
func rereadProbe(shards, replicas int, pattern func(i int) byte) (reread, error) {
	var r reread
	nodes := shards + 1 + replicas
	m := boot(bootSpec{nodes: nodes})
	err := m.setupStepped(10*time.Millisecond, 10*time.Second, func(p *des.Proc) error {
		svc := shard.NewService(p, m.mgrs[:shards], nodes, dfs.Geometry{})
		c := shard.NewClerk(p, m.mgrs[shards], svc, dfs.DX, shard.WithTokenCache())
		if replicas > 0 {
			if err := svc.AttachReplicas(p, 0, m.mgrs[shards+1:], 100*time.Microsecond); err != nil {
				return err
			}
		}
		want := make([]byte, probeSize)
		for i := range want {
			want[i] = pattern(i)
		}
		h, err := svc.Store.WriteFile("/export/probe.bin", want)
		if err != nil {
			return err
		}
		if err := svc.WarmFile(h); err != nil {
			return err
		}
		svc.AwaitChains(p)
		if _, err := c.Read(p, h, 0, probeSize); err != nil {
			return fmt.Errorf("first read: %w", err)
		}
		c.FlushLocal()
		if replicas > 0 {
			// Keep the tokens (and their watermarks), drop every cached
			// block copy: the re-read must move bytes — but only replica
			// bytes.
			c.DropTokenCache()
		}
		meter := func(sign int64) {
			for i := 0; i < shards; i++ {
				r.remoteReads += sign * c.Sub(i).RemoteReads
				r.remoteOps += sign * svc.Shards[i].RemoteOps()
			}
			r.replicaReads += sign * c.ReplicaReads
		}
		for i := 0; i < shards; i++ {
			m.cl.Nodes[i].ResetCPUAcct()
		}
		meter(-1)
		got, err := c.Read(p, h, 0, probeSize)
		if err != nil {
			return fmt.Errorf("re-read: %w", err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("re-read returned wrong bytes")
		}
		meter(1)
		r.tokenHits = c.TokenHits
		for i := 0; i < shards; i++ {
			acct := m.cl.Nodes[i].CPUAcct
			for _, d := range acct {
				r.cpu += time.Duration(d)
			}
			r.agreeCPU += time.Duration(acct[cluster.CatProc] + acct[cluster.CatControl] + acct[cluster.CatClient])
		}
		return nil
	})
	return r, err
}

// TokenRereadProbe measures the token-coherent cache's core claim on a
// fresh sharded rig: after a first read acquires read tokens and caches the
// blocks, a re-read of the same bytes must complete byte-correct with zero
// server CPU and zero remote reads. Returns an error if the bytes are
// wrong or the claim does not hold.
func TokenRereadProbe(shards int) (TokenProbeResult, error) {
	res := TokenProbeResult{Shards: shards, Bytes: probeSize}
	r, err := rereadProbe(shards, 0, func(i int) byte { return byte(i*11 + 3) })
	res.TokenHits, res.ServerCPU, res.RemoteReads = r.tokenHits, r.cpu, r.remoteReads
	switch {
	case err != nil:
		return res, err
	case res.ServerCPU != 0 || res.RemoteReads != 0:
		return res, fmt.Errorf("token-cached re-read was not free: server CPU %v, %d remote reads",
			res.ServerCPU, res.RemoteReads)
	case res.TokenHits == 0:
		return res, fmt.Errorf("re-read did not hit the token cache")
	}
	return res, nil
}

// ReplicaRereadProbe extends TokenRereadProbe to the replica tier's core
// claim: a read-token holder whose block copies are dropped refetches the
// bytes from chain members with zero primary CPU (client, control, and
// procedure categories — the acceptor assertion of the consensus tier
// applied to the primary) and zero one-sided operations landed on any
// primary segment. The primary's involvement in a replica read is
// *nothing at all*.
func ReplicaRereadProbe(replicas int) (ReplicaProbeResult, error) {
	res := ReplicaProbeResult{Replicas: replicas, Bytes: probeSize}
	r, err := rereadProbe(1, replicas, func(i int) byte { return byte(i*7 + 5) })
	res.ReplicaReads, res.PrimaryCPU, res.PrimaryRemoteOps = r.replicaReads, r.agreeCPU, r.remoteOps
	switch {
	case err != nil:
		return res, err
	case res.PrimaryCPU != 0 || res.PrimaryRemoteOps != 0:
		return res, fmt.Errorf("replica re-read touched the primary: CPU %v, %d remote ops",
			res.PrimaryCPU, res.PrimaryRemoteOps)
	case res.ReplicaReads == 0:
		return res, fmt.Errorf("re-read was not served by the replica tier")
	}
	return res, nil
}

// Replica read scaling (a Figure 3 analogue): a fleet of reader
// clerks hammers one hot file while a writer keeps the primary under a
// constant control-plane load. Every reader holds read tokens, so its
// re-reads bypass the primary entirely and round-robin over the chain
// members' exported frame segments. Each member's switch ingress port is
// a serial cell pump — the shared bottleneck — so aggregate hot-block
// read goodput scales with the member count while the primary's CPU
// occupancy (all from the writer's RPCs) stays flat.

// ReplicaScalePoint is one measured sweep point.
type ReplicaScalePoint struct {
	Replicas int
	Readers  int
	Window   time.Duration

	// ReadBytes is what the reader fleet verified-read inside the window;
	// GoodputMBs the same as MB/s.
	ReadBytes  int64
	GoodputMBs float64

	// ReplicaReads / ReplicaFallbacks split the fleet's block fetches by
	// source; Fallbacks land on the primary.
	ReplicaReads     int64
	ReplicaFallbacks int64

	// PrimaryCPU is the request-serving scheduled CPU (procedure + control
	// categories: RPC handlers and thread dispatch) charged on the primary
	// over the window; Occupancy the same as a fraction of the window. The
	// writer's paced Sync RPCs keep it nonzero, so "flat across the sweep"
	// is a meaningful claim rather than zero-equals-zero. ReplicationCPU is
	// the primary's rmem-client time — the chain pushes, including their
	// retransmissions when the fabric is busy — reported separately because
	// it scales with write traffic and fabric load, never with the reader
	// fleet's goodput.
	PrimaryCPU     time.Duration
	Occupancy      float64
	ReplicationCPU time.Duration

	// WriterOps counts write+sync rounds completed inside the window.
	WriterOps int64
}

const (
	replicaScaleHotSize = 32 * 1024 // 4 blocks round-robined over members
	replicaScaleWarm    = 20 * time.Millisecond
	replicaScaleWindow  = 100 * time.Millisecond
)

// RunReplicaScale measures one sweep point: `replicas` chain members
// serving `readers` token-holding reader clerks. The topology gives every
// actor its own node: primary 0, writer 1, readers 2..1+readers, chain
// members after.
func RunReplicaScale(replicas, readers int) (*ReplicaScalePoint, error) {
	if replicas < 1 || readers < 1 {
		return nil, fmt.Errorf("scenario: replica scale needs replicas >= 1 and readers >= 1")
	}
	pt := &ReplicaScalePoint{Replicas: replicas, Readers: readers, Window: replicaScaleWindow}
	m := boot(bootSpec{nodes: 2 + readers + replicas})
	env, cl := m.env, m.cl
	var svc *shard.Service
	var writer *shard.Clerk
	readerClerks := make([]*shard.Clerk, readers)
	var hot, wfile fstore.Handle
	// Setup overlaps the run. The writer and readers start at the 20ms
	// anchor and need only the service, the clerks and the files, which
	// setup builds at once; its chain-convergence wait ends at 27–41ms
	// depending on the chain length, at 3–4 members after the window opens
	// at 30ms. So only setup's error is checked, not its completion.
	setup := m.spawnSetup(func(p *des.Proc) (err error) {
		svc = shard.NewService(p, m.mgrs[:1], len(m.mgrs), dfs.Geometry{}, dfs.WithReliableReplies())
		writer = shard.NewClerk(p, m.mgrs[1], svc, dfs.DX, shard.WithTokenCache())
		for i := range readerClerks {
			readerClerks[i] = shard.NewClerk(p, m.mgrs[2+i], svc, dfs.DX, shard.WithTokenCache())
		}
		hotPat := make([]byte, replicaScaleHotSize)
		for i := range hotPat {
			hotPat[i] = byte(i*13 + 7)
		}
		if hot, err = svc.Store.WriteFile("/export/hot.bin", hotPat); err != nil {
			return err
		}
		if wfile, err = svc.Store.WriteFile("/export/load.bin", make([]byte, fstore.BlockSize)); err != nil {
			return err
		}
		if err := svc.WarmFile(hot); err != nil {
			return err
		}
		if err := svc.WarmFile(wfile); err != nil {
			return err
		}
		if err := svc.AttachReplicas(p, 0, m.mgrs[2+readers:], 100*time.Microsecond); err != nil {
			return err
		}
		// Let the chain converge on the warm frames, so that the measured
		// reads find every member serving.
		svc.AwaitChains(p)
		return nil
	})
	if err := env.RunUntil(des.Time(replicaScaleWarm)); err != nil {
		return nil, err
	}
	if setup.err != nil {
		return nil, setup.err
	}

	start := des.Time(replicaScaleWarm + 10*time.Millisecond)
	end := start.Add(replicaScaleWindow)
	var readBytes, writerOps int64
	var readErr error
	var cpuBefore, pushBefore time.Duration // CPU accrued on the primary before the window
	servingCPU := func() time.Duration {
		acct := cl.Nodes[0].CPUAcct
		return time.Duration(acct[cluster.CatProc] + acct[cluster.CatControl])
	}
	clientCPU := func() time.Duration {
		return time.Duration(cl.Nodes[0].CPUAcct[cluster.CatClient])
	}

	// The writer's constant load: dirty a block, then a Sync RPC — the
	// latter is a server procedure, the primary's only scheduled-CPU
	// consumer here. Rounds fire on fixed ticks so every sweep point sees
	// the identical load regardless of how busy the fabric is; a round is
	// attributed to the window by its tick, and the CPU baseline is taken
	// right before the first in-window round fires — between rounds, so a
	// round's latency jitter can never straddle the boundary and void the
	// point-to-point comparison.
	env.Spawn("replicascale.writer", func(p *des.Proc) {
		const tick = 20 * time.Millisecond
		blk := make([]byte, fstore.BlockSize)
		metered := false
		for round := uint32(0); ; round++ {
			next := des.Time(replicaScaleWarm).Add(time.Duration(round) * tick)
			if next >= end {
				return
			}
			sleepUntil(p, next)
			if next >= start && !metered {
				metered = true
				cpuBefore = servingCPU()
				pushBefore = clientCPU()
			}
			for i := range blk {
				blk[i] = byte(round + uint32(i))
			}
			if err := writer.Write(p, wfile, 0, blk); err != nil {
				return
			}
			if _, err := svc.Sync(p); err != nil {
				return
			}
			if next >= start {
				writerOps++
			}
		}
	})
	for i, rc := range readerClerks {
		rc := rc
		env.Spawn(fmt.Sprintf("replicascale.reader%d", i), func(p *des.Proc) {
			// First read acquires the read tokens and stamps watermarks.
			if _, err := rc.Read(p, hot, 0, replicaScaleHotSize); err != nil {
				readErr = err
				return
			}
			for p.Now() < end {
				// Keep the tokens, drop the copies: every pass must move
				// the bytes again — from a chain member.
				rc.DropTokenCache()
				t0 := p.Now()
				data, err := rc.Read(p, hot, 0, replicaScaleHotSize)
				if err != nil {
					readErr = err
					return
				}
				if len(data) != replicaScaleHotSize {
					readErr = fmt.Errorf("short hot read: %d bytes", len(data))
					return
				}
				if t0 >= start && p.Now() < end {
					readBytes += int64(len(data))
				}
			}
		})
	}

	if err := env.RunUntil(end.Add(5 * time.Millisecond)); err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, readErr
	}

	pt.ReadBytes = readBytes
	pt.GoodputMBs = float64(readBytes) / (1 << 20) / replicaScaleWindow.Seconds()
	for _, rc := range readerClerks {
		pt.ReplicaReads += rc.ReplicaReads
		pt.ReplicaFallbacks += rc.ReplicaFallbacks
	}
	pt.PrimaryCPU = servingCPU() - cpuBefore
	pt.ReplicationCPU = clientCPU() - pushBefore
	pt.Occupancy = float64(pt.PrimaryCPU) / float64(replicaScaleWindow)
	pt.WriterOps = writerOps
	return pt, nil
}

// ReplicaSweep runs RunReplicaScale for every chain length 1..maxReplicas
// with a fixed reader fleet.
func ReplicaSweep(maxReplicas, readers int) ([]*ReplicaScalePoint, error) {
	var pts []*ReplicaScalePoint
	for k := 1; k <= maxReplicas; k++ {
		pt, err := RunReplicaScale(k, readers)
		if err != nil {
			return nil, fmt.Errorf("replicas=%d: %w", k, err)
		}
		pts = append(pts, pt)
	}
	return pts, nil
}
