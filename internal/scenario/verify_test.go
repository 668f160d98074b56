package scenario

import (
	"testing"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/fstore"
	"netmem/internal/workload"
)

// lyingClerk passes everything through to a real clerk except that it
// flips one byte of every Read and ReadDir result and silently drops every
// Write.
type lyingClerk struct{ workload.FileAPI }

func flipFirst(b []byte, err error) ([]byte, error) {
	if err != nil || len(b) == 0 {
		return b, err
	}
	b = append([]byte(nil), b...) // never scribble on the clerk's cache
	b[0] ^= 0x01
	return b, nil
}

func (c lyingClerk) Read(p *des.Proc, h fstore.Handle, off int64, n int) ([]byte, error) {
	return flipFirst(c.FileAPI.Read(p, h, off, n))
}

func (c lyingClerk) ReadDir(p *des.Proc, h fstore.Handle, off int64, n int) ([]byte, error) {
	return flipFirst(c.FileAPI.ReadDir(p, h, off, n))
}

func (lyingClerk) Write(*des.Proc, fstore.Handle, int64, []byte) error { return nil }

// TestVerifierRejectsBadResults: every chaos golden rests on the verifier,
// so it must catch a clerk that returns wrong bytes or loses a write. DX
// notices the lost write as a deposit that never lands; HY (no deposit to
// watch) when the store reads back the old bytes after Sync.
func TestVerifierRejectsBadResults(t *testing.T) {
	for _, tc := range []struct {
		mode     dfs.Mode
		writeErr string
	}{
		{dfs.DX, "write deposit not observed"},
		{dfs.HY, "written bytes did not reach the store intact"},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			res, err := Run(Config{Mode: tc.mode, Seed: 1,
				wrap: func(fs workload.FileAPI) workload.FileAPI { return lyingClerk{fs} }})
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range res.Ops {
				want := ""
				switch dfs.Figure2Ops[i].Op {
				case dfs.OpRead:
					want = "read returned wrong bytes"
				case dfs.OpReadDir:
					want = "readdir returned wrong bytes"
				case dfs.OpWrite:
					want = tc.writeErr
				}
				if op.OK != (want == "") || op.Err != want {
					t.Errorf("%s: OK=%v Err=%q, want OK=%v Err=%q", op.Label, op.OK, op.Err, want == "", want)
				}
			}
			if res.Completed != 3 {
				t.Errorf("completed %d ops, want only the 3 metadata ops", res.Completed)
			}
		})
	}
}
