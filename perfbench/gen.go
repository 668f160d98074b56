package main

import (
	"math"
	"math/rand"
	"time"
)

// The arrival generator. It lives here, not in internal/workload, so that
// a change to the simulator's own workload engine cannot change the
// benchmark's inputs: the seed argument alone fixes every arrival.

// Activity is one NFS operation class of the paper's Table 1a.
type Activity int

const (
	actGetAttr Activity = iota
	actLookup
	actRead
	actNull
	actReadLink
	actReadDir
	actStatFS
	actWrite
	actOther // setattr stands in for the "other" row
	numActivities
)

var activityNames = [numActivities]string{
	"getattr", "lookup", "read", "null", "readlink", "readdir", "statfs", "write", "other",
}

func (a Activity) String() string { return activityNames[a] }

// table1a holds the published call counts of the departmental server.
var table1a = [numActivities]float64{
	actGetAttr:  8960671,
	actLookup:   8840866,
	actRead:     4478036,
	actNull:     3602730,
	actReadLink: 1628256,
	actReadDir:  981345,
	actStatFS:   149142,
	actWrite:    109712,
	actOther:    109986,
}

// Transfer sizes of the departmental mix: mostly full 8 KB blocks.
var (
	readSizes  = []int{8192, 8192, 4096, 1024, 512}
	writeSizes = []int{8192, 4096, 1024}
	dirSizes   = []int{512, 1024, 4096}
)

type mixKind int

const (
	mixDept mixKind = iota
	mixVideo
	mixMicro
)

// Tenant is one SLO class: its share of arrivals, its operation mix and
// its per-op deadline.
type Tenant struct {
	Name     string
	Share    float64
	Kind     mixKind
	Deadline time.Duration
	Mix      [numActivities]float64
}

// tenants returns the three default tenants. microWrite, when positive,
// raises the micro tenant's write share to that fraction and scales the
// rest of its mix down to fit.
func tenants(microWrite float64) []Tenant {
	var dept, video, micro [numActivities]float64
	var sum float64
	for _, c := range table1a {
		sum += c
	}
	for a, c := range table1a {
		dept[a] = c / sum
	}
	video[actRead], video[actGetAttr], video[actLookup] = 0.85, 0.10, 0.05
	micro[actGetAttr], micro[actLookup], micro[actReadDir] = 0.40, 0.30, 0.12
	micro[actRead], micro[actWrite], micro[actStatFS] = 0.08, 0.07, 0.03
	if microWrite > 0 {
		scale := (1 - microWrite) / (1 - micro[actWrite])
		for a := range micro {
			micro[a] *= scale
		}
		micro[actWrite] = microWrite
	}
	return []Tenant{
		{Name: "dept", Share: 0.50, Kind: mixDept, Deadline: 5 * time.Millisecond, Mix: dept},
		{Name: "video", Share: 0.25, Kind: mixVideo, Deadline: 8 * time.Millisecond, Mix: video},
		{Name: "micro", Share: 0.25, Kind: mixMicro, Deadline: 3 * time.Millisecond, Mix: micro},
	}
}

// Arrival is one scheduled operation.
type Arrival struct {
	At        time.Duration // offset from the window start
	Tenant    int
	Straggler bool
	Act       Activity
	File      int // Zipf rank, an index into the tree's files
	Size      int
}

// flashFactor is the flash-crowd envelope: half rate, then four times the
// rate for 15% of the window from its 45% mark.
func flashFactor(frac float64) float64 {
	if frac >= 0.45 && frac < 0.60 {
		return 4
	}
	return 0.5
}

// arrivals draws the whole open-loop stream for one run: a Poisson process
// at rate·shape(t), realised by thinning candidates drawn at the peak rate.
// It stands for the superposition of many independent clients' streams;
// no client identity is drawn, since nothing keys on it.
func arrivals(w *Workload, ten []Tenant, files int, seed int64) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	cum := make([]float64, files)
	var z float64
	for k := range cum {
		z += math.Pow(float64(k+1), -w.Theta)
		cum[k] = z
	}
	peak := w.Rate
	if w.Flash {
		peak *= 4
	}
	window := w.Window.Seconds()
	var out []Arrival
	for t := 0.0; ; {
		t += rng.ExpFloat64() / peak
		if t >= window {
			return out
		}
		if w.Flash && rng.Float64()*4 > flashFactor(t/window) {
			continue
		}
		a := Arrival{At: time.Duration(t * float64(time.Second))}
		u := rng.Float64()
		for acc := 0.0; a.Tenant < len(ten)-1; a.Tenant++ {
			if acc += ten[a.Tenant].Share; u <= acc {
				break
			}
		}
		a.Straggler = rng.Float64()*1000 < stragglerPerMille
		u = rng.Float64() * z
		lo, hi := 0, files-1
		for lo < hi {
			if mid := (lo + hi) / 2; u <= cum[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		a.File = lo
		tn := ten[a.Tenant]
		u = rng.Float64()
		a.Act = actGetAttr
		acc := 0.0
		for act, f := range tn.Mix {
			if f == 0 {
				continue
			}
			if acc += f; u <= acc {
				a.Act = Activity(act)
				break
			}
		}
		a.Size = 512
		switch {
		case tn.Kind == mixVideo && a.Act == actRead:
			a.Size = 8192
		case tn.Kind != mixDept:
		case a.Act == actRead:
			a.Size = readSizes[rng.Intn(len(readSizes))]
		case a.Act == actWrite:
			a.Size = writeSizes[rng.Intn(len(writeSizes))]
		case a.Act == actReadDir:
			a.Size = dirSizes[rng.Intn(len(dirSizes))]
		}
		out = append(out, a)
	}
}
