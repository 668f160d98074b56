package consensus

import (
	"testing"

	"netmem/internal/des"
)

// BenchmarkDecreeCommit measures the full agreement path: one proposer
// committing decrees back to back on a 3-acceptor group.
func BenchmarkDecreeCommit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRig(b, 1, 3, 1, Config{NoLease: true, Slots: 2048})
		var err error
		r.env.Spawn("bench", func(p *des.Proc) {
			r.await(p)
			pr := NewProposer(p, r.mgrs[3], 3, r.g)
			pr.Notify = false
			for n := 0; n < 1000; n++ {
				if _, err = pr.Commit(p, []byte{byte(n), byte(n >> 8)}); err != nil {
					return
				}
			}
		})
		if e := r.env.Run(); e != nil {
			b.Fatal(e)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
