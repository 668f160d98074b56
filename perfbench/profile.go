package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// Host time per layer: each CPU-profile sample is charged to the innermost
// frame that belongs to a netmem package, so the standard library and the
// runtime work a layer calls (bytes.Equal in a diff loop, mallocgc, channel
// hand-offs) count against that layer. Samples with no netmem frame (GC
// workers, the scheduler) count as runtime.

// profilePackages are the reported buckets; netmem packages not listed
// fall into "other", the benchmark's own code into "bench".
var profilePackages = []string{"des", "atm", "cluster", "rmem", "reliable", "dfs", "tokens",
	"shard", "fstore", "faults", "recovery", "obs", "bench", "runtime", "other"}

// packageShares merges CPU profiles and returns each bucket's share of the
// sampled CPU time.
func packageShares(profiles [][]byte) (map[string]float64, error) {
	by := map[string]int64{}
	var total int64
	for _, raw := range profiles {
		p, err := parseProfile(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range p.samples {
			pkg := "runtime"
		walk:
			for _, loc := range s.locs {
				for _, fn := range p.locFuncs[loc] {
					if b, ok := bucket(p.funcName[fn]); ok {
						pkg = b
						break walk
					}
				}
			}
			by[pkg] += s.value
			total += s.value
		}
	}
	out := map[string]float64{}
	for pkg, v := range by {
		out[pkg] = float64(v) / float64(max(total, 1))
	}
	return out, nil
}

// bucket maps a function symbol to its reporting bucket, if it is netmem's.
func bucket(fn string) (string, bool) {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench", true
	case strings.HasPrefix(fn, "netmem/internal/"):
		pkg := strings.TrimPrefix(fn, "netmem/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, b := range profilePackages {
			if b == pkg {
				return pkg, true
			}
		}
		return "other", true
	case strings.HasPrefix(fn, "netmem."):
		return "other", true
	}
	return "", false
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds
}

type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location → function ids, innermost first
	funcName map[uint64]string
}

// parseProfile decodes the parts of a gzipped profile.proto message the
// shares need: samples, locations, functions and the string table.
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]uint64{}
	err = fields(b, func(num int, v uint64, buf []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(buf, func(num int, v uint64, buf []byte) error {
				switch num {
				case 1:
					return packed(v, buf, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(v, buf, func(x uint64) { s.value = int64(x) }) // the last value: cpu ns
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(buf, func(num int, v uint64, buf []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(buf, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(buf, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6:
			strs = append(strs, string(buf))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcStr {
		if si < uint64(len(strs)) {
			p.funcName[id] = strs[si]
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, buf []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		var v uint64
		var buf []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			buf, b = b[n:n+int(l)], b[n+int(l):]
		case 1:
			b = b[min(8, len(b)):]
		case 5:
			b = b[min(4, len(b)):]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, buf); err != nil {
			return err
		}
	}
	return nil
}

// packed delivers a repeated varint field, packed (buf set) or not.
func packed(v uint64, buf []byte, fn func(uint64)) error {
	if buf == nil {
		fn(v)
		return nil
	}
	for len(buf) > 0 {
		x, n := uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		fn(x)
		buf = buf[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
