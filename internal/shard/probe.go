package shard

import (
	"bytes"
	"fmt"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// TokenProbeResult reports what a token-cached re-read cost.
type TokenProbeResult struct {
	Shards      int
	Bytes       int           // bytes re-read
	TokenHits   int64         // blocks served from the client's cache
	ServerCPU   time.Duration // CPU charged on any shard node during the re-read
	RemoteReads int64         // remote reads issued during the re-read
}

// TokenRereadProbe measures the token-coherent cache's core claim on a
// fresh sharded rig: after a first read acquires read tokens and caches the
// blocks, a re-read of the same bytes must complete byte-correct with zero
// server CPU and zero remote reads. Returns an error if the bytes are
// wrong or the claim does not hold.
func TokenRereadProbe(shards int) (TokenProbeResult, error) {
	const size = 12 * 1024
	res := TokenProbeResult{Shards: shards, Bytes: size}
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, shards+1)
	mgrs := make([]*rmem.Manager, shards+1)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(cl.Nodes[i])
	}
	var probeErr error
	env.Spawn("probe", func(p *des.Proc) {
		svc := NewService(p, mgrs[:shards], shards+1, dfs.Geometry{})
		c := NewClerk(p, mgrs[shards], svc, dfs.DX, WithTokenCache())
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i*11 + 3)
		}
		h, err := svc.Store.WriteFile("/export/probe.bin", want)
		if err != nil {
			probeErr = err
			return
		}
		if err := svc.WarmFile(h); err != nil {
			probeErr = err
			return
		}
		if _, err := c.Read(p, h, 0, size); err != nil {
			probeErr = fmt.Errorf("first read: %w", err)
			return
		}
		c.FlushLocal()
		for i := 0; i < shards; i++ {
			cl.Nodes[i].ResetCPUAcct()
		}
		var beforeReads int64
		for i := 0; i < shards; i++ {
			beforeReads += c.Sub(i).RemoteReads
		}
		got, err := c.Read(p, h, 0, size)
		if err != nil {
			probeErr = fmt.Errorf("re-read: %w", err)
			return
		}
		if !bytes.Equal(got, want) {
			probeErr = fmt.Errorf("token-cached re-read returned wrong bytes")
			return
		}
		res.TokenHits = c.TokenHits
		for i := 0; i < shards; i++ {
			for _, d := range cl.Nodes[i].CPUAcct {
				res.ServerCPU += time.Duration(d)
			}
			res.RemoteReads += c.Sub(i).RemoteReads
		}
		res.RemoteReads -= beforeReads
	})
	if err := env.RunUntil(des.Time(10 * time.Second)); err != nil {
		return res, err
	}
	if probeErr != nil {
		return res, probeErr
	}
	if res.ServerCPU != 0 || res.RemoteReads != 0 {
		return res, fmt.Errorf("token-cached re-read was not free: server CPU %v, %d remote reads",
			res.ServerCPU, res.RemoteReads)
	}
	if res.TokenHits == 0 {
		return res, fmt.Errorf("re-read did not hit the token cache")
	}
	return res, nil
}

// ReplicaProbeResult reports what a replica-served re-read cost the primary.
type ReplicaProbeResult struct {
	Replicas         int
	Bytes            int           // bytes re-read
	ReplicaReads     int64         // block fetches served by chain members
	PrimaryCPU       time.Duration // proc+control+client CPU on the primary
	PrimaryRemoteOps int64         // one-sided ops landed on the primary
}

// ReplicaRereadProbe extends TokenRereadProbe to the replica tier's core
// claim: a read-token holder whose block copies are dropped refetches the
// bytes from chain members with zero primary CPU (client, control, and
// procedure categories — the PR 7 acceptor assertion applied to the
// primary) and zero one-sided operations landed on any primary segment.
// The primary's involvement in a replica read is *nothing at all*.
func ReplicaRereadProbe(replicas int) (ReplicaProbeResult, error) {
	const size = 12 * 1024
	res := ReplicaProbeResult{Replicas: replicas, Bytes: size}
	env := des.NewEnv()
	nodes := 2 + replicas // primary, clerk, chain members
	cl := cluster.New(env, &model.Default, nodes)
	mgrs := make([]*rmem.Manager, nodes)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(cl.Nodes[i])
	}
	var probeErr error
	var probeDone bool
	env.Spawn("probe", func(p *des.Proc) {
		defer func() { probeDone = true }()
		svc := NewService(p, mgrs[:1], nodes, dfs.Geometry{})
		c := NewClerk(p, mgrs[1], svc, dfs.DX, WithTokenCache())
		if err := svc.AttachReplicas(p, 0, mgrs[2:], 100*time.Microsecond); err != nil {
			probeErr = err
			return
		}
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i*7 + 5)
		}
		h, err := svc.Store.WriteFile("/export/probe.bin", want)
		if err != nil {
			probeErr = err
			return
		}
		if err := svc.WarmFile(h); err != nil {
			probeErr = err
			return
		}
		// Let the chain pushes land the warm buckets on every member: deep
		// members catch up one forwarding hop per interval, so poll until
		// the whole chain agrees on a nonzero applied watermark.
		for tries := 0; tries < 200; tries++ {
			p.Sleep(des.Duration(time.Millisecond))
			lo, hi := ^uint64(0), uint64(0)
			for _, cr := range svc.Replicas(0) {
				if a := cr.Applied(); a < lo {
					lo = a
				}
				if a := cr.Applied(); a > hi {
					hi = a
				}
			}
			if lo == hi && lo > 0 {
				break
			}
		}
		if _, err := c.Read(p, h, 0, size); err != nil {
			probeErr = fmt.Errorf("first read: %w", err)
			return
		}
		// Keep the tokens (and their watermarks), drop every cached block
		// copy: the re-read must move bytes — but only replica bytes.
		c.FlushLocal()
		c.DropTokenCache()
		cl.Nodes[0].ResetCPUAcct()
		beforeOps := svc.Shards[0].RemoteOps()
		beforeReplica := c.ReplicaReads
		got, err := c.Read(p, h, 0, size)
		if err != nil {
			probeErr = fmt.Errorf("re-read: %w", err)
			return
		}
		if !bytes.Equal(got, want) {
			probeErr = fmt.Errorf("replica re-read returned wrong bytes")
			return
		}
		res.ReplicaReads = c.ReplicaReads - beforeReplica
		res.PrimaryRemoteOps = svc.Shards[0].RemoteOps() - beforeOps
		acct := cl.Nodes[0].CPUAcct
		res.PrimaryCPU = time.Duration(acct[cluster.CatProc] + acct[cluster.CatControl] + acct[cluster.CatClient])
	})
	// All assertions are read inside the proc; the chain daemons never
	// idle, so stop as soon as it finishes rather than draining a fixed
	// horizon of empty wakeups.
	if err := env.RunSteps(10*time.Millisecond, des.Time(10*time.Second), func() bool { return probeDone }); err != nil {
		return res, err
	}
	if probeErr != nil {
		return res, probeErr
	}
	if res.PrimaryCPU != 0 || res.PrimaryRemoteOps != 0 {
		return res, fmt.Errorf("replica re-read touched the primary: CPU %v, %d remote ops",
			res.PrimaryCPU, res.PrimaryRemoteOps)
	}
	if res.ReplicaReads == 0 {
		return res, fmt.Errorf("re-read was not served by the replica tier")
	}
	return res, nil
}
