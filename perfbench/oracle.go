package main

import (
	"encoding/binary"
	"fmt"

	"netmem/internal/des"
)

// The correctness oracle. Every write's payload carries a stamp (file,
// version) and bytes derived from it; every successful read is checked
// against the history of writes to its file. Writes start at offset 0 and
// are at most one block, so a read's first bytes name the write it saw.

const (
	stampMagic = 0x6e6d6231 // "nmb1"
	stampLen   = 16         // magic u32 | file u32 | version u64
)

type writeRec struct {
	size       int
	start, end des.Time // end < 0: not (yet) completed successfully
}

// Oracle keeps the write history of every file and checks reads.
type Oracle struct {
	writes     [][]writeRec // per file, indexed by version-1
	Checked    int64
	Violations []string
}

func newOracle(files int) *Oracle { return &Oracle{writes: make([][]writeRec, files)} }

// payloadByte is byte i of version v's payload for file f.
func payloadByte(f int, v uint64, i int) byte {
	x := uint32(f)*2654435761 ^ uint32(v)*40503 ^ uint32(i)*2246822519
	return byte(x ^ x>>13 ^ x>>24)
}

// BeginWrite registers a write about to be issued and returns its payload.
func (o *Oracle) BeginWrite(f, size int, now des.Time) (uint64, []byte) {
	o.writes[f] = append(o.writes[f], writeRec{size: size, start: now, end: -1})
	v := uint64(len(o.writes[f]))
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf[0:], stampMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(f))
	binary.LittleEndian.PutUint64(buf[8:], v)
	for i := stampLen; i < size; i++ {
		buf[i] = payloadByte(f, v, i)
	}
	return v, buf
}

// EndWrite marks version v of file f complete; a failed write stays open,
// since it may or may not have reached the server.
func (o *Oracle) EndWrite(f int, v uint64, now des.Time) {
	o.writes[f][v-1].end = now
}

// CheckRead validates the bytes a read of file f issued at start returned
// and reports whether they were right. The write it saw must not wholly
// precede a write that completed before the read was issued, and the bytes
// that write covers must match it.
func (o *Oracle) CheckRead(op int, f int, start des.Time, data []byte) bool {
	o.Checked++
	fail := func(format string, args ...any) bool {
		o.Failf("op %d read file %d issued at %v: "+format, append([]any{op, f, start}, args...)...)
		return false
	}
	// The newest start among writes that completed before the read began.
	floor, floorV := des.Time(-1), uint64(0)
	for i, w := range o.writes[f] {
		if w.end >= 0 && w.end < start && w.start > floor {
			floor, floorV = w.start, uint64(i+1)
		}
	}
	if len(data) < stampLen {
		return fail("short read of %d bytes", len(data))
	}
	magic := binary.LittleEndian.Uint32(data[0:])
	if magic == 0 {
		// Never written: the whole read must be the initial zeros.
		if floorV != 0 {
			return fail("saw the initial contents, but write v%d completed before the read", floorV)
		}
		for i, b := range data {
			if b != 0 {
				return fail("initial contents have byte %d = %#x", i, b)
			}
		}
		return true
	}
	file := int(binary.LittleEndian.Uint32(data[4:]))
	v := binary.LittleEndian.Uint64(data[8:])
	if magic != stampMagic || file != f || v == 0 || v > uint64(len(o.writes[f])) {
		return fail("bad stamp magic %#x file %d version %d (file has %d writes)", magic, file, v, len(o.writes[f]))
	}
	w := o.writes[f][v-1]
	if w.end >= 0 && w.end < floor {
		return fail("saw v%d, which completed before v%d began and completed before the read", v, floorV)
	}
	n := w.size
	if n > len(data) {
		n = len(data)
	}
	for i := stampLen; i < n; i++ {
		if data[i] != payloadByte(f, v, i) {
			return fail("v%d byte %d = %#x, want %#x", v, i, data[i], payloadByte(f, v, i))
		}
	}
	return true
}

// Failf records a violation found outside a read check.
func (o *Oracle) Failf(format string, args ...any) {
	o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
}
