package scenario

import "testing"

// TestCASContentionBench pins the micro-benchmark's invariants at a small
// size: every clerk lands every win exactly once (the contended word ends
// at Clerks×Wins) and the acceptor burns zero agreement CPU — RunCASBench
// returns an error, not a result, when either fails.
func TestCASContentionBench(t *testing.T) {
	res, err := RunCASBench(CASBenchConfig{Clerks: 6, WinsPerClerk: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wins != 300 {
		t.Errorf("wins=%d, want 300", res.Wins)
	}
	if res.Attempts < res.Wins {
		t.Errorf("attempts=%d < wins=%d", res.Attempts, res.Wins)
	}
	if res.AgreementCPU != 0 {
		t.Errorf("agreement CPU %v, want 0", res.AgreementCPU)
	}
	if res.InterfaceCPU <= 0 {
		t.Error("no interface CPU recorded — the scramble did not hit the acceptor")
	}
	if res.Window <= 0 || res.PerWin <= 0 {
		t.Errorf("degenerate timing: window=%v perWin=%v", res.Window, res.PerWin)
	}
}

// BenchmarkCASContention measures simulator wall-clock for the scramble —
// the consensus entry in the repo's gated bench suite.
func BenchmarkCASContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunCASBench(CASBenchConfig{Clerks: 8, WinsPerClerk: 200, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunCompactionSmall runs the soak at test size: 200 decrees through
// a 64-slot window must wrap it, and the replicas must agree and replay
// the checkpoint to the live digest.
func TestRunCompactionSmall(t *testing.T) {
	res, err := RunCompaction(64, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 200 || res.Windows() <= 3 || res.SnapBase == 0 || res.Snapshots == 0 {
		t.Errorf("soak shape: commits=%d windows=%.1f snapBase=%d snapshots=%d",
			res.Commits, res.Windows(), res.SnapBase, res.Snapshots)
	}
	if !res.LogsAgree || !res.ReplayOK {
		t.Errorf("audit: logs agree %v, replay ok %v", res.LogsAgree, res.ReplayOK)
	}
	if res.Window <= 0 || res.Events == 0 {
		t.Errorf("degenerate run: window %v, %d events", res.Window, res.Events)
	}
}
