package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 read from 300 samples rests on three values, so it
// is replaced by the highest percentile the sample can support.
const minTail = 10

// pctLadder lists the percentiles a tail latency may be reported at,
// highest first.
var pctLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rank returns the 1-based nearest-rank index of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// reportablePct returns the highest percentile of pctLadder, at most
// want, that leaves at least minTail of n samples beyond it; 0 when even
// the median does not.
func reportablePct(n int, want float64) float64 {
	for _, p := range pctLadder {
		if p <= want && n-rank(n, p) >= minTail {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of sorted samples
// (0 for an empty sample).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// dist summarizes one latency sample by the rule above: the median and
// the tail percentile the sample supports, at most the one asked for.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

func summarize(xs []float64, wantTail float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: percentile(s, 50)}
	if d.TailPct = reportablePct(len(s), wantTail); d.TailPct > 0 {
		d.Tail = percentile(s, d.TailPct)
	}
	return d
}

func median(xs []float64) float64 { return summarize(xs, 50).P50 }

// windowSize is the fewest samples whose p99 leaves minTail beyond it.
const windowSize = 1000

// bestWindow cuts xs, in arrival order, into consecutive windows of
// windowSize samples (the remainder joins the last window), takes
// percentile p of each, and returns the lowest of those with the sorted
// per-window values. On the shared host, stalls and slowdowns from
// outside the process came in bursts that covered up to most of a run
// and moved the whole-sample p99, and even the median window's, by 2-3x
// between runs; the best window's stayed within a few percent. A
// latency the program causes, such as a slower path or collector work
// every few milliseconds, raises every window. A sample too short for
// two windows yields the percentile the whole sample supports.
func bestWindow(xs []float64, p float64) (float64, []float64) {
	pcts := windowPcts(xs, p)
	sort.Float64s(pcts)
	return pcts[0], pcts
}

// windowPcts returns percentile p of each window bestWindow uses.
func windowPcts(xs []float64, p float64) []float64 {
	k := len(xs) / windowSize
	if k < 2 {
		return []float64{summarize(xs, p).Tail}
	}
	pcts := make([]float64, k)
	for w := range pcts {
		end := (w + 1) * windowSize
		if w == k-1 {
			end = len(xs)
		}
		pcts[w] = summarize(xs[w*windowSize:end], p).Tail
	}
	return pcts
}

// failFloor is the smallest failure ratio the benchmark reports: one in a
// million, below what any run here can resolve.
const failFloor = 1e-6

// failRatio is failed ÷ attempted, floored at failFloor. A run without
// failures then reads the same small non-zero value every time, so a
// bound stated as a share of the parent's value stays defined, and a
// single failure moves it by an order of magnitude or more.
func failRatio(failed, attempted int64) float64 {
	return math.Max(float64(failed)/float64(attempted), failFloor)
}
