package main

import (
	"fmt"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/ensemble"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// phase is one measured phase's request accounting.
type phase struct {
	name string
	t    tally
}

// result is what one workload run measured. e2e holds the end-to-end
// metrics (tracing off), layers the per-layer metrics (traced runs only),
// and extra the figures printed for a reader but not part of the contract.
type result struct {
	e2e, layers, extra []metric
	phases             []phase
}

// workload is one traffic mix; README.md says why each exists.
type workload struct {
	name string
	run  func(seed int64, d time.Duration, traced bool) (*result, error)
}

var workloads = []workload{
	{"paper_closed", runPaperClosed},
	{"open_f32", runOpenF32},
	{"fleet_rotating", runFleetRotating},
}

// setupReps is how many times a run sets its deployment up; setup_s is
// the median.
const setupReps = 21

// setUp builds a deployment setupReps times, closing all but the last,
// and returns it with the median set-up time in seconds.
func setUp[T interface{ close() error }](start func() (T, error)) (T, float64, error) {
	var env T
	times := make([]float64, setupReps)
	for i := range times {
		t0 := time.Now()
		var err error
		if env, err = start(); err != nil {
			return env, 0, fmt.Errorf("setting up: %w", err)
		}
		times[i] = time.Since(t0).Seconds()
		if i < setupReps-1 {
			if err := env.close(); err != nil {
				return env, 0, fmt.Errorf("tearing down: %w", err)
			}
		}
	}
	return env, median(times), nil
}

// measured runs f with the process's heap allocations and peak heap
// watched.
func measured(f func() error) (allocs uint64, heapMB float64, err error) {
	peak := startHeapPeak()
	before := heapAllocs()
	err = f()
	allocs = heapAllocs() - before
	return allocs, peak.stop(), err
}

// common appends the end-to-end metrics every workload reports the same
// way over all its measured phases.
func (r *result) common(setup float64, allocs uint64, heapMB float64) {
	var all tally
	for i := range r.phases {
		all.merge(&r.phases[i].t)
	}
	r.e2e = append(r.e2e,
		metric{"setup_s", setup, "s"},
		metric{"success_rate", float64(all.ok) / float64(max(all.sent, 1)), "ratio"},
		metric{"wire_bytes_per_req", float64(all.bytes) / float64(max(all.ok, 1)), "bytes"},
		metric{"allocs_per_req", float64(allocs) / float64(max(all.sent, 1)), "count"},
		metric{"heap_peak_mb", heapMB, "MiB"})
	r.extra = append(r.extra, metric{"error_rate", float64(all.misses()) / float64(max(all.sent, 1)), "ratio"})
}

// closedMetrics reports a closed loop of d traffic time: its ok rate,
// scaled to the reference host speed, and its latency 90th percentile,
// each a median over windows, bound by the benchmark; and beside them,
// unbounded, the ok rate as measured, the host's probed speed, and the
// latency median and 99th percentile. On a shared two-core host the median
// sits between two modes of the service time and the 99th percentile
// follows host stalls, so both spread from run to run further than a
// regression bound can allow; the 90th percentile lies above both modes
// and holds still.
func closedMetrics(t *tally, d time.Duration, host *hostSpeed) (e2e, extra []metric) {
	if len(host.mops) == 0 {
		host.probe() // a loop too short to pause in is probed after it
	}
	rps, q := t.windowed(d, 0.5, 0.9, 0.99)
	return []metric{{"throughput_rps", rps / host.scale(), "1/s"}, {"latency_p90_ms", ms(q[1]), "ms"}},
		[]metric{{"throughput_raw_rps", rps, "1/s"}, {"host.probe_mops", median(host.mops), "Mops"},
			{"latency_p50_ms", ms(q[0]), "ms"}, {"latency_p99_ms", ms(q[2]), "ms"}}
}

// latency reports an open-loop phase's latency median and 99th
// percentile, each a median over windows, with suffix on the names.
func latency(t *tally, d time.Duration, suffix string) []metric {
	_, q := t.windowed(d, 0.5, 0.99)
	return []metric{{"latency_p50_ms" + suffix, ms(q[0]), "ms"}, {"latency_p99_ms" + suffix, ms(q[1]), "ms"}}
}

// clientLayers reports the client-half timers and the traced comm round
// trip.
func clientLayers(tm *clientTimers, roundTrip durs) []metric {
	return []metric{
		{"client.features_us", us(tm.features.take().quantile(0.5)), "us"},
		{"client.select_us", us(tm.sel.take().quantile(0.5)), "us"},
		{"client.tail_us", us(tm.tail.take().quantile(0.5)), "us"},
		{"comm.exchange_us", us(roundTrip.quantile(0.5)), "us"},
	}
}

// serverLayers reads the server stage times from the tracer's histograms.
func serverLayers(tr *trace.Tracer) []metric {
	var out []metric
	for _, st := range tr.StageStats() {
		switch st.Stage {
		case "decode", "queue", "forward", "encode":
			out = append(out,
				metric{"comm.server_" + st.Stage + "_mean_us", us(st.Mean), "us"},
				metric{"comm.server_" + st.Stage + "_p99_us", us(st.P99), "us"})
		}
	}
	return out
}

// kernelLayers runs the kernel table and the client allocation count on
// the workload's pipeline after its traffic has stopped.
func kernelLayers(e *ensemble.Ensembler, x *tensor.Tensor) ([]metric, error) {
	out, err := kernelTable(e, x)
	if err != nil {
		return nil, err
	}
	return append(out, metric{"client.allocs_per_req", clientAllocs(e, x, 200), "count"}), nil
}

func runPaperClosed(seed int64, d time.Duration, traced bool) (*result, error) {
	cfg := pooledCfg{precision: comm.PrecisionF64, wire: comm.WireBinary}
	xs := images(paperConfig(seed).Arch, seed)
	refs := references(ensemble.New(paperConfig(seed)), xs)
	p, setup, err := setUp(func() (*pooled, error) { return startPooled(cfg, seed, xs, refs, traced) })
	if err != nil {
		return nil, err
	}
	defer p.close()
	r := &result{}
	var t tally
	host := hostSpeed{cores: conns}
	allocs, heapMB, _ := measured(func() error { t = p.closedLoop(d, seed, &host); return nil })
	r.phases = []phase{{"closed", t}}
	r.e2e, r.extra = closedMetrics(&t, d, &host)
	r.common(setup, allocs, heapMB)
	if !traced {
		return r, nil
	}
	r.layers = append(clientLayers(p.tm, p.roundTrips.take()), serverLayers(p.tr)...)
	kl, err := kernelLayers(p.e, xs[0])
	if err != nil {
		return nil, err
	}
	r.layers = append(r.layers, kl...)
	return r, nil
}

// open_f32's schedule, as shares of the run: a closed loop on one
// connection that measures the service rate, the two fixed rates, then
// searchSteps steps of the SLO rate search. The closed loop runs one
// connection because two, with the dispatcher coalescing whatever is
// queued, fall into modes (both requests batched together, or each on its
// own worker) that persist for seconds: over five seeds its throughput
// spread by 20% with two connections and by about 10% with one.
const (
	rateLow, rateHigh   = 300.0, 600.0
	shareClosed         = 0.5
	shareLow, shareHigh = 0.12, 0.08
	searchSteps         = 6
	shareSearch         = 0.05
)

func runOpenF32(seed int64, d time.Duration, traced bool) (*result, error) {
	cfg := pooledCfg{precision: comm.PrecisionF32, wire: comm.WireBinaryF32, dispatch: true}
	xs := images(paperConfig(seed).Arch, seed)
	refs := references(ensemble.New(paperConfig(seed)), xs)
	p, setup, err := setUp(func() (*pooled, error) { return startPooled(cfg, seed, xs, refs, traced) })
	if err != nil {
		return nil, err
	}
	defer p.close()
	gen := rng.New(seed)
	var closed tally
	var steps []openStep
	best := 0.0
	host := hostSpeed{cores: 1}
	allocs, heapMB, _ := measured(func() error {
		closed = p.closedLoop(scale(d, shareClosed), seed, &host)
		rate, _ := closed.windowed(scale(d, shareClosed))
		steps = append(steps,
			p.openLoop(rateLow, scale(d, shareLow), gen),
			p.openLoop(rateHigh, scale(d, shareHigh), gen))
		// Bisect between the highest passing fixed rate and conns times the
		// one-connection service rate, which an open loop over conns
		// connections cannot exceed.
		lo, hi := 0.0, conns*rate
		for _, s := range steps {
			if s.meetsSLO() {
				lo = s.rate
			}
		}
		if hi <= lo {
			hi = 2 * lo
		}
		for i := 0; i < searchSteps; i++ {
			rate := (lo + hi) / 2
			s := p.openLoop(rate, scale(d, shareSearch), gen)
			steps = append(steps, s)
			if s.meetsSLO() {
				lo = rate
			} else {
				hi = rate
			}
		}
		best = lo
		return nil
	})
	r := &result{phases: []phase{{"closed", closed}}}
	var lags, waits durs
	for i, s := range steps {
		name := fmt.Sprintf("search%d@%.0f", i-1, s.rate)
		if i < 2 {
			name = fmt.Sprintf("r%.0f", s.rate)
		}
		r.phases = append(r.phases, phase{name, s.t})
		lags = append(lags, s.lags...)
		waits = append(waits, s.waits...)
	}
	// The end-to-end figures come from the closed-loop phase: open-loop
	// tail latency on a shared two-core host spreads far wider from run to
	// run than any bound a regression gate could use, so the fixed-rate
	// figures are reported beside the layers instead.
	low, high := &steps[0].t, &steps[1].t
	r.e2e, r.extra = closedMetrics(&closed, scale(d, shareClosed), &host)
	r.common(setup, allocs, heapMB)
	r.extra = append(r.extra, metric{"max_rps_under_slo", best, "1/s"})
	r.extra = append(r.extra, latency(low, scale(d, shareLow), fmt.Sprintf(".r%.0f", rateLow))...)
	r.extra = append(r.extra, latency(high, scale(d, shareHigh), fmt.Sprintf(".r%.0f", rateHigh))...)
	r.extra = append(r.extra, metric{"gen.lag_p99_ms", ms(lags.quantile(0.99)), "ms"})
	if !traced {
		return r, nil
	}
	ds := p.srv.srv.DispatcherStats()
	served := closed.ok + closed.failed + closed.wrong
	for _, s := range steps {
		served += s.t.ok + s.t.failed + s.t.wrong
	}
	r.layers = append(clientLayers(p.tm, p.roundTrips.take()), serverLayers(p.tr)...)
	r.layers = append(r.layers,
		metric{"comm.pool_wait_us", us(waits.quantile(0.5)), "us"},
		metric{"dispatch.mean_batch", float64(served) / float64(max(ds.Batches, 1)), "count"},
		metric{"dispatch.peak_depth", float64(ds.PeakDepth), "count"},
		metric{"dispatch.sheds", float64(ds.Sheds), "count"})
	kl, err := kernelLayers(p.e, xs[0])
	if err != nil {
		return nil, err
	}
	r.layers = append(r.layers, kl...)
	return r, nil
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

func runFleetRotating(seed int64, d time.Duration, traced bool) (*result, error) {
	xs := images(fleetConfig(seed).Arch, seed)
	fl, setup, err := setUp(func() (*fleet, error) { return startFleet(seed, xs, traced) })
	if err != nil {
		return nil, err
	}
	defer fl.close()
	before, rowsBefore := fl.health(), fl.ledger.Stats().Rows
	var run fleetRun
	host := hostSpeed{cores: conns}
	allocs, heapMB, err := measured(func() error {
		var err error
		run, err = fl.closedLoop(d, seed, &host)
		return err
	})
	if err != nil {
		return nil, err
	}
	after := fl.health()
	r := &result{phases: []phase{{"closed", run.t}}}
	r.e2e, r.extra = closedMetrics(&run.t, d, &host)
	r.common(setup, allocs, heapMB)
	var reg, client, both durs
	for _, rot := range run.rotations {
		reg = append(reg, rot.registry)
		client = append(client, rot.client)
		both = append(both, rot.registry+rot.client)
	}
	r.extra = append(r.extra,
		metric{"rotation_p50_ms", ms(both.quantile(0.5)), "ms"},
		metric{"rotations", float64(len(run.rotations)), "count"},
		metric{"shard.mixed_epoch_failures", float64(run.t.mixed), "count"})
	if !traced {
		return r, nil
	}
	served := after.Requests - before.Requests - (after.Failures - before.Failures)
	r.layers = append(clientLayers(fl.tm, run.scatter), serverLayers(fl.tr)...)
	r.layers = append(r.layers,
		metric{"shard.scatter_us", us(run.scatter.quantile(0.5)), "us"},
		metric{"shard.requests", float64(after.Requests - before.Requests), "count"},
		metric{"shard.failures", float64(after.Failures - before.Failures), "count"},
		metric{"shard.short_circuits", float64(after.ShortCircuits - before.ShortCircuits), "count"},
		metric{"registry.rotate_ms", ms(reg.quantile(0.5)), "ms"},
		metric{"shard.rotate_to_ms", ms(client.quantile(0.5)), "ms"},
		metric{"comm.first_after_rotation_ms", ms(run.firstAfter.quantile(0.5)), "ms"},
		metric{"privacy.rows_charged_per_req", float64(fl.ledger.Stats().Rows-rowsBefore) / float64(max(served, 1)), "ratio"})
	kl, err := kernelLayers(fl.base, xs[0])
	if err != nil {
		return nil, err
	}
	r.layers = append(r.layers, kl...)
	return r, nil
}
