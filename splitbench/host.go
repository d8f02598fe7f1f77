package main

import (
	"sync"
	"time"
)

// The shared host the benchmark runs on changes speed by a quarter or more
// over minutes, as other tenants come and go, and closed-loop throughput
// moves with it. So each closed loop probes the host's speed — a fixed
// floating-point loop on as many goroutines as the loop has connections,
// with the program's traffic stopped — after each second of traffic, and
// the bounded throughput is scaled to a host that runs the probe at
// refMopsPerCore per goroutine. In tuning runs at a time the host was
// busy, paper_closed's throughput spread by 20% over five seeds and its
// scaled throughput by 6%. Latency's 90th percentile did not follow the
// probe, and is reported as measured.
const (
	// refMopsPerCore is the reference host speed: million probe
	// iterations per second on one goroutine.
	refMopsPerCore = 1000.0
	// probeLen is how long one probe runs.
	probeLen = 100 * time.Millisecond
	// probeEvery is the traffic time between probes in a closed loop.
	probeEvery = time.Second
)

var probeSink float64

// probe runs the fixed loop on n goroutines for probeLen and returns the
// host's speed in million iterations per second, summed over them.
func probe(n int) float64 {
	const chunk = 20000
	iters := make([]int, n)
	sums := make([]float64, n)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range iters {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := 0.0
			for time.Since(start) < probeLen {
				for i := 0; i < chunk; i++ {
					x += float64(i) * 1.0000001
				}
				iters[g] += chunk
			}
			sums[g] = x
		}(g)
	}
	wg.Wait()
	total := 0
	for g, k := range iters {
		total += k
		probeSink += sums[g]
	}
	return float64(total) / time.Since(start).Seconds() / 1e6
}

// hostSpeed collects the probes of one closed loop run from cores
// connections.
type hostSpeed struct {
	cores int
	mops  []float64
}

func (h *hostSpeed) probe() { h.mops = append(h.mops, probe(h.cores)) }

// scale is the median probed speed over the reference speed: a rate
// divided by it is what a host at the reference speed would show.
func (h *hostSpeed) scale() float64 {
	return median(h.mops) / (refMopsPerCore * float64(h.cores))
}
