// Package workload reproduces the paper's §2 measurement study: the NFS
// operation mix observed on the University of Washington departmental file
// server over several days (Table 1a) and the decomposition of the
// resulting client/server network traffic into "data traffic" (bytes the
// file system protocol inherently needs) and "control traffic" (additional
// bytes imposed by RPC semantics: file handles, communication identifiers,
// marshaling overheads — network-protocol headers excluded) (Table 1b).
//
// The original trace is long gone; this package substitutes a synthetic
// workload that reproduces the *published* mix exactly (the counts are the
// paper's own) and a per-operation byte model calibrated so the published
// aggregate ratios come out: control ≈ 12% of total traffic, and the write
// row's control/data ratio ≈ 0.01.
//
// The package is traffic only: trace generation, open-loop arrival
// schedules, replay through any clerk, and the shared latency Recorder. The
// drivers that boot simulated machines and run this traffic against them
// live in internal/scenario.
package workload

import (
	"fmt"
	"math/rand"
)

// Activity identifies one Table 1a row.
type Activity int

const (
	ActGetAttr Activity = iota
	ActLookup
	ActRead
	ActNullPing
	ActReadLink
	ActReadDir
	ActStatFS
	ActWrite
	ActOther
	numActivities
)

var activityNames = [numActivities]string{
	"Get File Attribute",
	"Lookup File Name",
	"Read File Data",
	"Null Ping Call",
	"Read Symbolic Link",
	"Read Directory Contents",
	"Read File System Stats.",
	"Write File Data",
	"Other",
}

func (a Activity) String() string {
	if a >= 0 && a < numActivities {
		return activityNames[a]
	}
	return fmt.Sprintf("Activity(%d)", int(a))
}

// Table1aCounts are the published call counts (several days of activity at
// the departmental server, 28,860,744 RPCs total).
var Table1aCounts = [numActivities]int64{
	ActGetAttr:  8960671,
	ActLookup:   8840866,
	ActRead:     4478036,
	ActNullPing: 3602730,
	ActReadLink: 1628256,
	ActReadDir:  981345,
	ActStatFS:   149142,
	ActWrite:    109712,
	ActOther:    109986,
}

// Table1aTotal is the published total.
const Table1aTotal int64 = 28860744

// Table1aPercent are the published percentage figures (rounded as printed).
var Table1aPercent = [numActivities]float64{
	ActGetAttr:  31,
	ActLookup:   31,
	ActRead:     16,
	ActNullPing: 13,
	ActReadLink: 6,
	ActReadDir:  3,
	ActStatFS:   0.5,
	ActWrite:    0.4,
	ActOther:    0.3,
}

// Row is one rendered Table 1a line.
type Row struct {
	Activity Activity
	Calls    int64
	Percent  float64
}

// Table1a returns the activity summary rows plus the total, computed from
// the counts (percentages are recomputed, matching the published rounding).
func Table1a() ([]Row, int64) {
	var rows []Row
	var total int64
	for a := Activity(0); a < numActivities; a++ {
		total += Table1aCounts[a]
	}
	for a := Activity(0); a < numActivities; a++ {
		rows = append(rows, Row{
			Activity: a,
			Calls:    Table1aCounts[a],
			Percent:  100 * float64(Table1aCounts[a]) / float64(total),
		})
	}
	return rows, total
}

// ---------------------------------------------------------------------------
// Table 1b: the per-operation traffic model.
//
// Control traffic is what RPC semantics add beyond the data the protocol
// needs: transaction/communication identifiers on every message, the file
// handle named by a request, and marshaling padding for string arguments.
// Data traffic is the protocol content itself: attributes, names resolved,
// file bytes, directory entries. The per-op mean transfer sizes are fitted
// so the aggregate reproduces the published table (overall control/data ≈
// 0.14, control ≈ 12% of all bytes, write-row ratio ≈ 0.01).

// TrafficModel holds the byte accounting parameters.
type TrafficModel struct {
	CommID     int // transaction identifiers, per message (request + reply)
	FileHandle int // opaque handle carried by requests that name a file
	Credential int // identifiers/credentials beyond the xid, per call
	MarshalPad int // string-argument marshaling overhead (lookup, readlink)

	AttrBytes   int // a fattr result
	LookupData  int // handle + attributes returned by lookup
	ReadAvg     int // mean bytes returned per read call
	ReadLinkAvg int // mean symlink target length
	ReadDirAvg  int // mean directory payload per readdir call
	StatFSBytes int
	WriteAvg    int // mean bytes sent per write call
	OtherAvg    int // create/remove/setattr-class payloads
}

// DefaultTraffic is calibrated against the published aggregates.
var DefaultTraffic = TrafficModel{
	CommID:     4,
	FileHandle: 12,
	Credential: 6,
	MarshalPad: 12,

	AttrBytes:   68,
	LookupData:  100,
	ReadAvg:     573,
	ReadLinkAvg: 30,
	ReadDirAvg:  1200,
	StatFSBytes: 48,
	WriteAvg:    2470,
	OtherAvg:    100,
}

// PerCall returns (control, data) bytes for one call of the activity.
func (m *TrafficModel) PerCall(a Activity) (control, data int) {
	// Two messages per RPC: both carry a transaction id.
	control = 2 * m.CommID
	switch a {
	case ActNullPing:
		return control, 0
	case ActStatFS:
		return control, m.StatFSBytes
	case ActGetAttr:
		return control + m.FileHandle + m.Credential, m.AttrBytes
	case ActLookup:
		return control + m.FileHandle + m.Credential + m.MarshalPad, m.LookupData
	case ActRead:
		return control + m.FileHandle + m.Credential, m.ReadAvg
	case ActReadLink:
		return control + m.FileHandle + m.Credential, m.ReadLinkAvg
	case ActReadDir:
		return control + m.FileHandle + m.Credential, m.ReadDirAvg
	case ActWrite:
		return control + m.FileHandle + m.Credential + 8, m.WriteAvg + m.AttrBytes
	case ActOther:
		return control + m.FileHandle + m.Credential + m.MarshalPad, m.OtherAvg
	}
	return control, 0
}

// TrafficRow is one Table 1b line, in megabytes as the paper prints them.
type TrafficRow struct {
	Activity  Activity
	ControlMB float64
	DataMB    float64
	Ratio     float64
}

// Table1b computes the control/data traffic breakdown for the given call
// counts (use Table1aCounts for the paper's snapshot).
func Table1b(m *TrafficModel, counts [numActivities]int64) ([]TrafficRow, TrafficRow) {
	const mb = 1 << 20
	var rows []TrafficRow
	var totC, totD float64
	for a := Activity(0); a < numActivities; a++ {
		c, d := m.PerCall(a)
		cm := float64(c) * float64(counts[a]) / mb
		dm := float64(d) * float64(counts[a]) / mb
		ratio := 0.0
		if dm > 0 {
			ratio = cm / dm
		}
		rows = append(rows, TrafficRow{Activity: a, ControlMB: cm, DataMB: dm, Ratio: ratio})
		totC += cm
		totD += dm
	}
	return rows, TrafficRow{ControlMB: totC, DataMB: totD, Ratio: totC / totD}
}

// NumActivities exposes the row count for renderers.
const NumActivities = int(numActivities)

// ---------------------------------------------------------------------------
// Synthetic trace generation: a stream of operations drawn from the
// published mix, for replay against the file service.

// TraceOp is one operation to replay.
type TraceOp struct {
	Activity Activity
	// File/Dir select which synthetic object the op touches; Size is the
	// transfer size for read/write/readdir.
	File int
	Dir  int
	Size int
}

// Mix returns the activity frequencies as normalized fractions.
func Mix() [numActivities]float64 {
	var mix [numActivities]float64
	for a := Activity(0); a < numActivities; a++ {
		mix[a] = float64(Table1aCounts[a]) / float64(Table1aTotal)
	}
	return mix
}

// Generator draws operations from the Table 1a mix.
type Generator struct {
	rng   *rand.Rand
	cum   [numActivities]float64
	Files int // synthetic file population
	Dirs  int
}

// NewGenerator creates a deterministic generator over the given synthetic
// population.
func NewGenerator(seed int64, files, dirs int) *Generator {
	g := &Generator{rng: rand.New(rand.NewSource(seed)), Files: files, Dirs: dirs}
	mix := Mix()
	sum := 0.0
	for a := Activity(0); a < numActivities; a++ {
		sum += mix[a]
		g.cum[a] = sum
	}
	return g
}

// transfer sizes used for data-bearing ops: the NFS-era distribution is
// dominated by full 8K transfers with a tail of partial ones.
var readSizes = []int{8192, 8192, 4096, 1024, 512}
var writeSizes = []int{8192, 4096, 1024}
var dirSizes = []int{512, 1024, 4096}

// Next draws the next operation.
func (g *Generator) Next() TraceOp {
	u := g.rng.Float64()
	a := ActOther
	for i := Activity(0); i < numActivities; i++ {
		if u <= g.cum[i] {
			a = i
			break
		}
	}
	op := TraceOp{Activity: a, File: g.rng.Intn(g.Files), Dir: g.rng.Intn(g.Dirs)}
	switch a {
	case ActRead:
		op.Size = readSizes[g.rng.Intn(len(readSizes))]
	case ActWrite:
		op.Size = writeSizes[g.rng.Intn(len(writeSizes))]
	case ActReadDir:
		op.Size = dirSizes[g.rng.Intn(len(dirSizes))]
	}
	return op
}

// Trace draws n operations.
func (g *Generator) Trace(n int) []TraceOp {
	out := make([]TraceOp, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// CountByActivity tallies a trace.
func CountByActivity(trace []TraceOp) [numActivities]int64 {
	var counts [numActivities]int64
	for _, op := range trace {
		counts[op.Activity]++
	}
	return counts
}
