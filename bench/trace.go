package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of the
// span that caused it (-1 for a root); spans of one round share Round (-1
// outside any round).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
}

// recorder keeps spans in memory until the run ends. The benchmark records
// them from its own files, around calls into each layer's exported functions;
// the product carries no instrumentation. A nil recorder records nothing, so
// the measured (tracing-off) run shares the traced run's code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<12)}
}

// begin opens a span and returns its index, which end and child spans take.
func (r *recorder) begin(name string, parent, round int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Round: round})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// seconds returns the duration of every span with the given name, in
// recording order.
func (r *recorder) seconds(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfSeconds is span id's duration minus the part of that interval its
// direct children cover. Children may overlap one another (a parallel
// fan-out), so the covered part is the union of their intervals, clipped to
// the parent.
func selfSeconds(spans []span, id int) float64 {
	p := spans[id]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	var covered, reach int64
	reach = p.Start
	for _, k := range kids {
		if k.hi <= reach {
			continue
		}
		covered += k.hi - max(k.lo, reach)
		reach = k.hi
	}
	return float64(p.End-p.Start-covered) / 1e9
}

// timing summarises a set of duration samples: the median, and the highest
// percentile of tailLadder that still has at least ten samples beyond it
// (TailPct 0 when the set is too small for any).
type timing struct {
	Median  float64 `json:"median"`
	Tail    float64 `json:"tail,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
	N       int     `json:"n"`
}

// tailLadder is in per mille, so the nearest-rank arithmetic stays integral.
var tailLadder = []int{999, 990, 950, 900, 750}

func summarize(samples []float64) timing {
	n := len(samples)
	if n == 0 {
		return timing{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{Median: medianSorted(s), N: n}
	for _, pm := range tailLadder {
		rank := (pm*n + 999) / 1000 // nearest-rank, 1-based
		if n-rank >= 10 {
			t.Tail, t.TailPct = s[rank-1], float64(pm)/10
			break
		}
	}
	return t
}

// median copies and sorts.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return medianSorted(s)
}

func medianSorted(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// spanCostSeconds calibrates the cost of recording one span by recording n
// empty ones on a scratch recorder.
func spanCostSeconds(n int) float64 {
	r := &recorder{epoch: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("calibrate", -1, -1))
	}
	return time.Since(start).Seconds() / float64(n)
}
