package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// durs is a sample of durations with the summaries the report needs.
type durs []time.Duration

// quantile returns the q-quantile by nearest rank; 0 for an empty sample.
func (d durs) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durs(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quantileWithMisses is quantile over the sample plus misses requests that
// count as slower than any of it: a failed or shed request misses every
// latency limit. It reports ok=false when the quantile falls on a miss.
func (d durs) quantileWithMisses(q float64, misses int64) (time.Duration, bool) {
	n := len(d) + int(misses)
	if n == 0 {
		return 0, true
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank >= len(d) {
		return 0, false
	}
	s := append(durs(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[max(rank, 0)], true
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recorder collects durations from several goroutines.
type recorder struct {
	mu sync.Mutex
	d  durs
}

func (r *recorder) add(d time.Duration) {
	r.mu.Lock()
	r.d = append(r.d, d)
	r.mu.Unlock()
}

func (r *recorder) take() durs {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.d
	r.d = nil
	return out
}

// tally is one phase's request accounting plus its latency sample.
type tally struct {
	sent, ok, failed, shed, wrong int64
	mixed                         int64 // failures that were mixed-epoch gather refusals
	bytes                         int   // wire bytes up plus down over ok requests
	lat                           durs  // latency of each ok request
	at                            durs  // when each ok request was sent (or due), from the phase start
	firstErr                      string
}

func (t *tally) merge(o *tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.failed += o.failed
	t.shed += o.shed
	t.wrong += o.wrong
	t.mixed += o.mixed
	t.bytes += o.bytes
	t.lat = append(t.lat, o.lat...)
	t.at = append(t.at, o.at...)
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// okAt books one ok request sent (or due) at offset at into its phase.
func (t *tally) okAt(lat, at time.Duration) {
	t.ok++
	t.lat = append(t.lat, lat)
	t.at = append(t.at, at)
}

// minWindow is the shortest window a phase is split into for its windowed
// summaries.
const minWindow = 1500 * time.Millisecond

// windowed splits a phase of length d into windows of at least minWindow
// by send time and returns the medians over the windows of the ok rate and
// of each latency quantile in qs. Medians over windows keep a short stall of
// the host from moving the figures of a whole run.
func (t *tally) windowed(d time.Duration, qs ...float64) (rps float64, quantiles []time.Duration) {
	n := max(1, int(d/minWindow))
	w := d / time.Duration(n)
	buckets := make([]durs, n)
	for i, at := range t.at {
		if k := int(at / w); k >= 0 && k < n {
			buckets[k] = append(buckets[k], t.lat[i])
		}
	}
	rates := make([]float64, n)
	perQ := make([][]float64, len(qs))
	for k, b := range buckets {
		rates[k] = float64(len(b)) / w.Seconds()
		for j, q := range qs {
			perQ[j] = append(perQ[j], float64(b.quantile(q)))
		}
	}
	for _, v := range perQ {
		quantiles = append(quantiles, time.Duration(median(v)))
	}
	return median(rates), quantiles
}

// misses counts requests that did not return a checked answer.
func (t *tally) misses() int64 { return t.failed + t.shed + t.wrong }

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = err.Error()
	}
}

// heapAllocs reads the process's cumulative heap allocation count without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the bytes of heap objects in use every few milliseconds
// until stop is called, which returns the largest value seen.
type heapPeak struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-tick.C:
			case <-h.stopc:
				h.done <- peak
				return
			}
		}
	}()
	return h
}

func (h *heapPeak) stop() float64 {
	close(h.stopc)
	return float64(<-h.done) / (1 << 20)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
