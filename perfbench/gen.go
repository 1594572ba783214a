package main

import (
	"math"
	"sync"
	"time"
)

// openResult is what one open-loop phase measured.
type openResult struct {
	// Latency holds, per sent request in due order, the milliseconds from
	// the time it was due to its completion; failed requests read +Inf, so
	// they miss every latency limit.
	Latency []float64
	// Late holds, per dispatched request, how many milliseconds after its
	// due time the scheduler handed it to the senders.
	Late      []float64
	Scheduled int
	Sent      int
}

// add appends the outcome of a later open phase at the same rate.
func (r *openResult) add(o openResult) {
	r.Latency = append(r.Latency, o.Latency...)
	r.Late = append(r.Late, o.Late...)
	r.Scheduled += o.Scheduled
	r.Sent += o.Sent
}

func (r openResult) sentRatio() float64 {
	if r.Scheduled == 0 {
		return 0
	}
	return float64(r.Sent) / float64(r.Scheduled)
}

// Limits past which the generator has fallen behind and the phase's
// latencies no longer describe the system at the intended rate.
const (
	maxLateP99Ms = 50
	minSentRatio = 0.98
)

// behind reports why the generator fell behind, or "" when it kept up.
func (r openResult) behind() string {
	if r.sentRatio() < minSentRatio {
		return "open loop sent too few of its scheduled requests"
	}
	if d := summarize(r.Late, 99); d.Tail > maxLateP99Ms {
		return "open-loop scheduler ran late"
	}
	return ""
}

// job is one scheduled request.
type job struct {
	i   int
	due time.Time
}

// runOpen sends rate requests per second for dur: one scheduler releases
// request i at start + i/rate and at most `senders` goroutines send them.
// Each request is timed from when it was due, not from when a sender got
// to it, so a stall shows as latency on every request queued behind it.
// Requests still queued when the phase ends (plus a short grace) are not
// sent; the shortfall shows in the sent ratio. send reports success.
func runOpen(rate float64, dur time.Duration, senders int, send func(i int) bool) openResult {
	n := int(rate * dur.Seconds())
	res := openResult{Scheduled: n}
	// Sized to every send, so the scheduler never blocks on the senders
	// and its lateness measures only its own timer slop.
	ch := make(chan job, n)
	start := time.Now()
	deadline := start.Add(dur + 250*time.Millisecond)
	// lat[i] is request i's latency; NaN marks a request never sent.
	lat := make([]float64, n)
	for i := range lat {
		lat[i] = math.NaN()
	}
	var wg sync.WaitGroup
	wg.Add(senders)
	for s := 0; s < senders; s++ {
		go func() {
			defer wg.Done()
			for j := range ch {
				if time.Now().After(deadline) {
					continue
				}
				ok := send(j.i)
				lat[j.i] = float64(time.Since(j.due)) / 1e6
				if !ok {
					lat[j.i] = math.Inf(1)
				}
			}
		}()
	}
	res.Late = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.Late = append(res.Late, float64(time.Since(due))/1e6)
		ch <- job{i, due}
	}
	close(ch)
	wg.Wait()
	for _, ms := range lat {
		if !math.IsNaN(ms) {
			res.Latency = append(res.Latency, ms)
		}
	}
	res.Sent = len(res.Latency)
	return res
}
