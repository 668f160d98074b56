package scenario

import (
	"strings"
	"testing"
	"time"

	"netmem/internal/dfs"
)

func TestRunShardScaleSmoke(t *testing.T) {
	pt, err := RunClosedLoop(ClosedLoopConfig{
		Topology: Sharded, Shards: 2, Clients: 4, Mode: dfs.DX,
		Window: 200 * time.Millisecond, ThinkTime: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Servers != 2 || pt.Clients != 4 {
		t.Errorf("shape: %d shards, %d clients", pt.Servers, pt.Clients)
	}
	if pt.OpsDone == 0 || pt.OpsPerSec <= 0 {
		t.Errorf("no throughput: %+v", pt)
	}
	if len(pt.ServerUtil) != 2 || pt.MeanUtil <= 0 {
		t.Errorf("missing per-shard occupancy: %+v", pt.ServerUtil)
	}
}

// TestShardScaleOccupancyFlat is the scaling acceptance check: with load
// scaled proportionally (fixed clients per shard), mean per-shard CPU
// occupancy at 3 shards must stay within 15% of the 1-shard baseline —
// sharding divides the load rather than replicating it.
func TestShardScaleOccupancyFlat(t *testing.T) {
	run := func(shards int) utilPoint {
		pt, err := RunClosedLoop(ClosedLoopConfig{
			Topology: Sharded, Shards: shards, Clients: 4 * shards, Mode: dfs.DX,
			Window: time.Second, ThinkTime: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return utilPoint{pt.MeanUtil, pt.OpsPerSec}
	}
	base := run(1)
	scaled := run(3)
	ratio := scaled.Util / base.Util
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("3-shard mean occupancy %.3f vs 1-shard %.3f (ratio %.2f), want within 15%%",
			scaled.Util, base.Util, ratio)
	}
	if scaled.Ops < 2*base.Ops {
		t.Errorf("aggregate throughput did not scale: 1 shard %.0f ops/s, 3 shards %.0f ops/s",
			base.Ops, scaled.Ops)
	}
}

type utilPoint struct {
	Util float64
	Ops  float64
}

func TestRunShardScaleTokenCache(t *testing.T) {
	pt, err := RunClosedLoop(ClosedLoopConfig{
		Topology: Sharded, Shards: 2, Clients: 4, Mode: dfs.DX, TokenCache: true,
		Window: 200 * time.Millisecond, ThinkTime: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.TokenHits == 0 {
		t.Error("token cache enabled but no read was served from it")
	}
}

func TestScaleDXBeatsHYOnServerLoad(t *testing.T) {
	// The §3 scalability claim: at equal client population and think
	// time, DX leaves the server less utilized (or, if both saturate,
	// delivers more operations).
	const clients = 4
	hy, err := RunClosedLoop(ClosedLoopConfig{Clients: clients, Mode: dfs.HY,
		Window: time.Second, ThinkTime: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	dx, err := RunClosedLoop(ClosedLoopConfig{Clients: clients, Mode: dfs.DX,
		Window: time.Second, ThinkTime: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("HY: %.0f ops/s, util %.2f; DX: %.0f ops/s, util %.2f",
		hy.OpsPerSec, hy.MeanUtil, dx.OpsPerSec, dx.MeanUtil)
	if hy.OpsDone == 0 || dx.OpsDone == 0 {
		t.Fatal("no operations completed")
	}
	// Per delivered operation, DX must cost the server far less CPU.
	hyPerOp := hy.MeanUtil / hy.OpsPerSec
	dxPerOp := dx.MeanUtil / dx.OpsPerSec
	if dxPerOp >= hyPerOp*0.6 {
		t.Errorf("server CPU per op: DX %.3g, HY %.3g — want DX well under", dxPerOp, hyPerOp)
	}
}

func TestScaleThroughputGrowsWithClients(t *testing.T) {
	one, err := RunClosedLoop(ClosedLoopConfig{Clients: 1, Mode: dfs.DX,
		Window: 500 * time.Millisecond, ThinkTime: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	three, err := RunClosedLoop(ClosedLoopConfig{Clients: 3, Mode: dfs.DX,
		Window: 500 * time.Millisecond, ThinkTime: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if three.OpsPerSec <= one.OpsPerSec*1.5 {
		t.Fatalf("3 clients: %.0f ops/s vs 1 client: %.0f — unsaturated DX should scale",
			three.OpsPerSec, one.OpsPerSec)
	}
}

// TestClosedLoopTopologies: the closed loop runs on the single-server and
// sharded rows only.
func TestClosedLoopTopologies(t *testing.T) {
	if _, err := RunClosedLoop(ClosedLoopConfig{Topology: Chain, Clients: 1}); err == nil {
		t.Error("closed loop accepted the chain topology")
	}
	pt, err := RunClosedLoop(ClosedLoopConfig{Clients: 2, Mode: dfs.DX, Window: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Servers != 1 || len(pt.ServerUtil) != 1 || pt.MeanUtil != pt.ServerUtil[0] || pt.OpsDone == 0 {
		t.Errorf("single-server point: %+v", pt)
	}
}

// TestClosedLoopSetupMustFinish: the window opens at a fixed 500ms
// anchor, and wiring the token revocation mesh of 24 token-caching clerks
// on 4 shards takes longer than that. The run must refuse to measure
// rather than open the window on a half-built tier.
func TestClosedLoopSetupMustFinish(t *testing.T) {
	_, err := RunClosedLoop(ClosedLoopConfig{Topology: Sharded, Shards: 4, Clients: 24, TokenCache: true,
		Mode: dfs.DX, Window: 100 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "setup did not finish") {
		t.Fatalf("err = %v, want an unfinished-setup error", err)
	}
}
