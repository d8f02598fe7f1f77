// Command ensembler-bench regenerates the paper's evaluation tables from
// the command line and measures the serving subsystem:
//
//	ensembler-bench -table 1              # Table I (defense quality, 3 datasets)
//	ensembler-bench -table 2              # Table II (defense battery, CIFAR-10-like)
//	ensembler-bench -table 3              # Table III (latency model)
//	ensembler-bench -table all -scale paper
//	ensembler-bench -claims               # §IV headline percentages
//	ensembler-bench -serving -clients 8   # throughput under concurrency
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/data"
	"ensembler/internal/experiments"
	"ensembler/internal/latency"
	"ensembler/internal/nn"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "ensembler-bench: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: parse, regenerate the requested
// tables (or measure serving throughput), returning errors instead of
// exiting.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ensembler-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "which table to regenerate: 1, 2, 3, or all")
	scaleName := fs.String("scale", "small", "experiment scale: small or paper")
	seed := fs.Int64("seed", 42, "experiment seed")
	n := fs.Int("n", 10, "ensemble size for the latency model and serving bench")
	claims := fs.Bool("claims", false, "also print the paper's §IV headline claims")
	verbose := fs.Bool("v", false, "log training progress")
	serving := fs.Bool("serving", false, "measure concurrent serving throughput over loopback instead of regenerating tables")
	clients := fs.Int("clients", 8, "concurrent client connections for -serving")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "server worker replicas for -serving")
	reqBatch := fs.Int("req-batch", 1, "images per request for -serving")
	duration := fs.Duration("duration", 2*time.Second, "measurement window per -serving regime")
	jsonPath := fs.String("json", "", "write machine-readable -serving results to this path (the BENCH_*.json perf trajectory)")
	wireName := fs.String("wire", "binary", "client wire payloads for -serving: binary (float64) or f32 (half the bytes, ~1e-7 relative feature rounding)")
	precisionName := fs.String("precision", "f64", "server compute precision for -serving: f64 (reference kernels) or f32 (float32 kernels)")
	comparePath := fs.String("compare", "", "compare the -serving run against this baseline BENCH_*.json and fail on regression")
	tolerance := fs.Float64("tolerance", 0.2, "relative regression band for -compare and the queueing-model p99 gate (0.2 = fail beyond 20%)")
	batchWindow := fs.Duration("batch-window", 0, "also measure a continuous-batching regime with this dispatcher window, gated against the queueing model's p99 (0 skips)")
	maxQueue := fs.Int("max-queue", 0, "intake-queue bound for the -batch-window regime (0 = server default)")
	arrivalRate := fs.Float64("arrival-rate", 0, "open-loop Poisson arrivals/sec for the -batch-window regime (0 = closed loop)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *jsonPath != "" && !*serving {
		return fmt.Errorf("-json records serving measurements; combine it with -serving")
	}
	if *comparePath != "" && !*serving {
		return fmt.Errorf("-compare gates serving measurements; combine it with -serving")
	}

	if *serving {
		var wire comm.WireFormat
		switch *wireName {
		case "binary":
			wire = comm.WireBinary
		case "f32":
			wire = comm.WireBinaryF32
		default:
			return fmt.Errorf("unknown -wire %q (want binary or f32)", *wireName)
		}
		precision, err := comm.ParsePrecision(*precisionName)
		if err != nil {
			return err
		}
		report, err := runServingBench(stdout, stderr, *n, *clients, *workers, *reqBatch, *duration, wire, precision, *jsonPath,
			*batchWindow, *maxQueue, *arrivalRate, *tolerance)
		if err != nil {
			return err
		}
		if *comparePath != "" {
			return compareReports(stdout, *comparePath, report, *tolerance)
		}
		return nil
	}

	var sc experiments.Scale
	switch *scaleName {
	case "small":
		sc = experiments.Small()
	case "paper":
		sc = experiments.Paper()
	default:
		return fmt.Errorf("unknown scale %q (want small or paper)", *scaleName)
	}
	var log io.Writer
	if *verbose {
		log = stderr
	}

	runI := *table == "1" || *table == "all"
	runII := *table == "2" || *table == "all" || *claims
	runIII := *table == "3" || *table == "all"
	if !runI && !runII && !runIII {
		return fmt.Errorf("unknown table %q (want 1, 2, 3, or all)", *table)
	}

	if runI {
		for _, blk := range experiments.TableI(sc, *seed, log) {
			experiments.RenderRows(stdout,
				fmt.Sprintf("\nTable I — %s (N=%d, P=%d)", blk.Kind, sc.N, blk.P), blk.Rows)
		}
	}
	if runII {
		rows := experiments.TableII(sc, *seed+1, log)
		experiments.RenderRows(stdout, "\nTable II — defense mechanisms, cifar10-like", rows)
		if *claims {
			rep := experiments.ComputeClaims(rows, sc.N)
			fmt.Fprintf(stdout, "\n§IV claims (paper → measured):\n")
			fmt.Fprintf(stdout, "  SSIM decrease vs Single:  43.5%% → %.1f%%\n", rep.SSIMDropVsSingle)
			fmt.Fprintf(stdout, "  PSNR decrease vs Single:  40.5%% → %.1f%%\n", rep.PSNRDropVsSingle)
			fmt.Fprintf(stdout, "  latency overhead:          4.8%% → %.1f%%\n", rep.LatencyOverhead)
		}
	}
	if runIII {
		fmt.Fprintln(stdout)
		experiments.RenderTableIII(stdout, experiments.TableIII(*n))
		fmt.Fprintf(stdout, "Ensembler overhead vs Standard CI: %.1f%% (paper: 4.8%%)\n", latency.OverheadPercent(*n))
	}
	return nil
}

// benchArch is the serving-bench operating point: the default CIFAR-10-like
// split architecture with untrained weights (inference cost is identical to
// a trained pipeline's); bodies and wiring come from the shared commtest
// harness.
func benchArch() split.Arch { return split.DefaultArch(data.CIFAR10Like) }

// BenchReport is the machine-readable form of one -serving run — the unit
// of the repo's BENCH_*.json perf trajectory. Fields are stable: tooling
// diffs consecutive reports for regressions.
type BenchReport struct {
	Timestamp  string            `json:"timestamp"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Config     BenchConfig       `json:"config"`
	Results    []BenchResult     `json:"results"`
	Extra      map[string]string `json:"extra,omitempty"`
}

// BenchConfig records the measured operating point. EffectiveParallelism is
// min(workers, GOMAXPROCS) — the parallelism the host actually granted, and
// what the analytic model is clamped to (the BENCH_2026-07-30 report
// predicted 4.5× for a pool its single-core host could never run).
type BenchConfig struct {
	Bodies               int     `json:"bodies"`
	Clients              int     `json:"clients"`
	Workers              int     `json:"workers"`
	ReqBatch             int     `json:"req_batch"`
	WindowSeconds        float64 `json:"window_seconds"`
	EffectiveParallelism int     `json:"effective_parallelism"`
	Wire                 string  `json:"wire"`
	// Precision is the server compute precision the regimes ran at ("f64"
	// or "f32"); wire precision is recorded separately in Wire. Empty in
	// reports predating the float32 backend, which compareReports treats
	// as f64.
	Precision string `json:"precision,omitempty"`
	// BatchWindowSeconds/MaxQueue/ArrivalRPS record the continuous-batching
	// regime, when one was measured (-batch-window); all zero otherwise.
	BatchWindowSeconds float64 `json:"batch_window_seconds,omitempty"`
	MaxQueue           int     `json:"max_queue,omitempty"`
	ArrivalRPS         float64 `json:"arrival_rps,omitempty"`
}

// BenchResult is one measured (or model-predicted) regime.
type BenchResult struct {
	Name      string  `json:"name"`
	ReqPerSec float64 `json:"req_per_sec,omitempty"`
	ImgPerSec float64 `json:"img_per_sec,omitempty"`
	NsPerOp   float64 `json:"ns_per_op,omitempty"`
	Value     float64 `json:"value,omitempty"`
}

// throughputResult converts a measured rate into the result row shape.
func throughputResult(name string, reqPerSec float64, reqBatch int) BenchResult {
	r := BenchResult{Name: name, ReqPerSec: reqPerSec, ImgPerSec: reqPerSec * float64(reqBatch)}
	if reqPerSec > 0 {
		r.NsPerOp = 1e9 / reqPerSec
	}
	return r
}

// measured is one throughput regime's full measurement.
type measured struct {
	reqPerSec   float64
	allocsPerOp float64 // whole-process heap allocations per request (client side included)
	bytesUp     int     // wire bytes client→server for one request
	bytesDown   int     // wire bytes server→client for one request
	gcCount     uint32
	gcPauseMs   float64
	gcMaxMs     float64
}

// runServingBench measures sustained request throughput over loopback TCP
// for a single connection and for the requested concurrency, then prints
// the analytic model's prediction for the same regimes — clamped to the
// parallelism this host can actually deliver. jsonPath, when set,
// additionally writes the measurements as a BenchReport.
func runServingBench(stdout, stderr io.Writer, n, clients, workers, reqBatch int, window time.Duration, wire comm.WireFormat, precision comm.Precision, jsonPath string,
	batchWindow time.Duration, maxQueue int, arrivalRate, tolerance float64) (*BenchReport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	defer ln.Close()
	// The tracer feeds per-stage latency histograms on every request; tail
	// retention is fully off (negative rate AND negative slowest-N — zero
	// values would mean the defaults) so retention can't perturb the
	// measurement. Shared with the batched regime's server so its queue and
	// batch-window stages land in the same attribution table.
	tracer := trace.New(trace.Config{SampleRate: -1, SlowestN: -1})
	srv := comm.NewServer(commtest.Bodies(benchArch(), n),
		comm.WithWorkers(workers),
		comm.WithReplicas(func() []*nn.Network { return commtest.Bodies(benchArch(), n) }),
		comm.WithTracer(tracer),
		comm.WithPrecision(precision),
	)
	comm.PinKernelParallelism(srv.Workers())
	defer tensor.SetKernelParallelism(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	effective := min(srv.Workers(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "serving bench: N=%d bodies, %d workers, %d images/request, %v per regime, %s wire, %s compute, GOMAXPROCS=%d (effective parallelism %d)\n",
		n, srv.Workers(), reqBatch, window, wire, precision, runtime.GOMAXPROCS(0), effective)

	single := measureThroughput(stderr, ln.Addr().String(), n, 1, reqBatch, window, wire)
	many := measureThroughput(stderr, ln.Addr().String(), n, clients, reqBatch, window, wire)
	fmt.Fprintf(stdout, "  1 connection:   %7.2f req/s  (%.2f img/s, %.1f allocs/req, %d B up + %d B down per req)\n",
		single.reqPerSec, single.reqPerSec*float64(reqBatch), single.allocsPerOp, single.bytesUp, single.bytesDown)
	fmt.Fprintf(stdout, "  %d connections: %7.2f req/s  (%.2f img/s, %.1f allocs/req, %d GC pauses totalling %.2f ms, max %.3f ms)\n",
		clients, many.reqPerSec, many.reqPerSec*float64(reqBatch), many.allocsPerOp, many.gcCount, many.gcPauseMs, many.gcMaxMs)
	if single.reqPerSec > 0 {
		fmt.Fprintf(stdout, "  speedup: %.2f×\n", many.reqPerSec/single.reqPerSec)
	}

	wireFactor := latency.WireFactorBinary
	if wire == comm.WireBinaryF32 {
		wireFactor = latency.WireFactorBinaryF32
	}
	computeFactor := latency.ComputeFactorF64
	if precision == comm.PrecisionF32 {
		computeFactor = latency.ComputeFactorF32
	}
	// The prediction comparable to this measurement is the loopback-bench
	// scenario clamped to the host's effective parallelism and the chosen
	// wire — not the paper's Pi+LAN deployment, whose round trip is
	// link-dominated (the mistake behind BENCH_2026-07-30's 4.5×-vs-0.94×
	// "gap": two different experiments).
	predictedOne := latency.EstimateServing(latency.ServingScenario{
		Base: latency.LoopbackBench(n), Workers: workers, Clients: 1, Batch: reqBatch,
		EffectiveParallel: effective, WireFactor: wireFactor, ComputeFactor: computeFactor})
	predictedMany := latency.EstimateServing(latency.ServingScenario{
		Base: latency.LoopbackBench(n), Workers: workers, Clients: clients, Batch: reqBatch,
		EffectiveParallel: effective, WireFactor: wireFactor, ComputeFactor: computeFactor})
	predicted := predictedMany.ThroughputRPS / predictedOne.ThroughputRPS
	fmt.Fprintf(stdout, "\nanalytic model, loopback-bench scenario (pool clamped to %d-way parallelism, %s wire, %s compute):\n", effective, wire, precision)
	for _, est := range latency.ConcurrencySweep(latency.LoopbackBench(n), workers, effective, reqBatch, []int{1, 2, 4, clients}) {
		fmt.Fprintf(stdout, "  %s\n", est)
	}
	fmt.Fprintf(stdout, "  predicted speedup at %d clients: %.2f× (unclamped pool would predict %.2f×)\n",
		clients, predicted, latency.ConcurrencySpeedup(latency.LoopbackBench(n), workers, 0, reqBatch, clients))
	fmt.Fprintf(stdout, "\npaper-device model for reference (Pi client, A6000 server, wired LAN — NOT this host):\n")
	for _, est := range latency.ConcurrencySweep(latency.Ensembler(n), workers, effective, reqBatch, []int{1, clients}) {
		fmt.Fprintf(stdout, "  %s\n", est)
	}

	// The continuous-batching regime runs on its own dispatcher-enabled
	// server, calibrated against the unbatched measurement above and gated
	// against the queueing model.
	var batched *batchedRun
	if batchWindow > 0 {
		batched, err = runBatchedRegime(stdout, stderr, n, clients, workers, reqBatch,
			window, wire, precision, batchWindow, maxQueue, arrivalRate, effective, many.reqPerSec, tracer)
		if err != nil {
			return nil, err
		}
	}

	// Per-stage latency attribution: where server-side time actually went,
	// from the tracer's histograms (every request observes).
	stageStats := tracer.StageStats()
	if len(stageStats) > 0 {
		fmt.Fprintf(stdout, "\nstage attribution (all regimes):\n")
		fmt.Fprintf(stdout, "  %-12s %10s %12s %12s\n", "stage", "count", "mean", "p99")
		for _, s := range stageStats {
			fmt.Fprintf(stdout, "  %-12s %10d %12s %12s\n", s.Stage, s.Count,
				s.Mean.Round(time.Microsecond), s.P99.Round(time.Microsecond))
		}
	}

	report := &BenchReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config: BenchConfig{
			Bodies: n, Clients: clients, Workers: srv.Workers(),
			ReqBatch: reqBatch, WindowSeconds: window.Seconds(),
			EffectiveParallelism: effective, Wire: wire.String(), Precision: precision.String(),
			BatchWindowSeconds: batchWindow.Seconds(), MaxQueue: maxQueue, ArrivalRPS: arrivalRate,
		},
		Results: []BenchResult{
			throughputResult("serve_single_connection", single.reqPerSec, reqBatch),
			throughputResult(fmt.Sprintf("serve_concurrent_%d", clients), many.reqPerSec, reqBatch),
		},
	}
	if single.reqPerSec > 0 {
		report.Results = append(report.Results, BenchResult{Name: "speedup", Value: many.reqPerSec / single.reqPerSec})
	}
	report.Results = append(report.Results,
		BenchResult{Name: "predicted_speedup", Value: predicted},
		BenchResult{Name: "allocs_per_req", Value: many.allocsPerOp},
		BenchResult{Name: "bytes_up_per_req", Value: float64(single.bytesUp)},
		BenchResult{Name: "bytes_down_per_req", Value: float64(single.bytesDown)},
		BenchResult{Name: "gc_count", Value: float64(many.gcCount)},
		BenchResult{Name: "gc_pause_total_ms", Value: many.gcPauseMs},
		BenchResult{Name: "gc_pause_max_ms", Value: many.gcMaxMs},
	)
	if batched != nil {
		report.Results = append(report.Results,
			throughputResult("serve_batched", batched.m.reqPerSec, reqBatch),
			BenchResult{Name: "serve_batched_p50_ms", Value: 1e3 * batched.p50.Seconds()},
			BenchResult{Name: "serve_batched_p99_ms", Value: 1e3 * batched.p99.Seconds()},
			BenchResult{Name: "queueing_predicted_p99_ms", Value: 1e3 * batched.pred.P99Seconds},
			BenchResult{Name: "batch_occupancy_max", Value: float64(batched.stats.MaxCoalesced)},
			BenchResult{Name: "shed_total", Value: float64(batched.stats.Sheds)},
		)
	}
	for _, s := range stageStats {
		report.Results = append(report.Results,
			BenchResult{Name: "stage_" + s.Stage + "_mean_ms", Value: 1e3 * s.Mean.Seconds()},
			BenchResult{Name: "stage_" + s.Stage + "_p99_ms", Value: 1e3 * s.P99.Seconds()},
		)
	}
	if jsonPath != "" {
		if err := writeBenchReport(jsonPath, *report); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", jsonPath)
	}

	cancel()
	<-served
	if batched != nil && batched.p99 > 0 {
		ratio := batched.pred.P99Seconds / batched.p99.Seconds()
		if ratio < 1-tolerance || ratio > 1+tolerance {
			return report, fmt.Errorf("queueing model gate: predicted p99 %.1fms vs measured %.1fms (ratio %.2f) outside ±%.0f%%",
				1e3*batched.pred.P99Seconds, 1e3*batched.p99.Seconds(), ratio, 100*tolerance)
		}
	}
	return report, nil
}

// batchedRun is the continuous-batching regime's measurement plus the
// queueing model's matching prediction.
type batchedRun struct {
	m        measured
	p50, p99 time.Duration
	stats    comm.DispatcherStats
	pred     latency.QueueingEstimate
}

// runBatchedRegime measures throughput and latency quantiles against a
// dispatcher-enabled server, prints the queueing model's planning sweep, and
// returns the measurement alongside the model's prediction for the measured
// operating point. unbatchedRPS — the saturated throughput of the plain
// server — calibrates the per-request service time the model runs on, so the
// prediction shares this host's hardware reality.
func runBatchedRegime(stdout, stderr io.Writer, n, clients, workers, reqBatch int,
	window time.Duration, wire comm.WireFormat, precision comm.Precision, batchWindow time.Duration, maxQueue int,
	arrivalRate float64, effective int, unbatchedRPS float64, tracer *trace.Tracer) (*batchedRun, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	defer ln.Close()
	opts := []comm.ServerOption{
		comm.WithWorkers(workers),
		comm.WithReplicas(func() []*nn.Network { return commtest.Bodies(benchArch(), n) }),
		comm.WithBatchWindow(batchWindow),
		comm.WithTracer(tracer),
		comm.WithPrecision(precision),
	}
	if maxQueue > 0 {
		opts = append(opts, comm.WithMaxQueue(maxQueue))
	}
	srv := comm.NewServer(commtest.Bodies(benchArch(), n), opts...)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	mode := "closed loop"
	if arrivalRate > 0 {
		mode = fmt.Sprintf("open loop, Poisson λ=%.0f/s", arrivalRate)
	}
	fmt.Fprintf(stdout, "\ncontinuous batching: window %v, %d connections (%s)\n", batchWindow, clients, mode)
	m, lats := measureLatencies(stderr, ln.Addr().String(), n, clients, reqBatch, window, wire, arrivalRate)
	stats := srv.DispatcherStats()
	cancel()
	<-served
	if len(lats) == 0 {
		return nil, fmt.Errorf("continuous-batching regime completed no requests")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50 := lats[len(lats)/2]
	p99 := lats[(len(lats)*99)/100]
	fmt.Fprintf(stdout, "  batched:        %7.2f req/s  (p50 %.1fms, p99 %.1fms, max batch %d, %d sheds, queue peak %d/%d)\n",
		m.reqPerSec, 1e3*p50.Seconds(), 1e3*p99.Seconds(), stats.MaxCoalesced, stats.Sheds, stats.PeakDepth, stats.MaxQueue)

	// Calibrated service time: the saturated unbatched pool completes
	// unbatchedRPS requests/sec over `effective` parallel workers.
	serviceSec := 0.0
	if unbatchedRPS > 0 {
		serviceSec = float64(effective) / unbatchedRPS
	}
	base := latency.QueueingScenario{
		Workers: workers, EffectiveParallel: effective, ServiceSeconds: serviceSec,
	}
	pt := base
	pt.ArrivalRPS = m.reqPerSec
	pt.WindowSeconds = batchWindow.Seconds()
	pred := latency.EstimateContinuousBatching(pt)
	fmt.Fprintf(stdout, "  queueing model: predicted p99 %.1fms (mean batch %.1f, util %.0f%%) vs measured %.1fms\n",
		1e3*pred.P99Seconds, pred.MeanBatch, 100*pred.Utilization, 1e3*p99.Seconds())

	fmt.Fprintf(stdout, "\nqueueing sweep (calibrated service %.2fms/request):\n", 1e3*serviceSec)
	rates := []float64{m.reqPerSec / 2, m.reqPerSec, 2 * m.reqPerSec}
	windows := []float64{0, batchWindow.Seconds() / 2, batchWindow.Seconds(), 2 * batchWindow.Seconds()}
	for _, row := range latency.QueueingSweep(base, rates, windows) {
		fmt.Fprintf(stdout, "  %s\n", row)
	}
	return &batchedRun{m: m, p50: p50, p99: p99, stats: stats, pred: pred}, nil
}

// measureLatencies drives the measurement loop like measureThroughput while
// recording every per-request latency. arrivalRate > 0 switches each
// connection from closed-loop hammering to an open-loop Poisson process of
// rate arrivalRate/conns (independent Poisson streams superpose to the
// aggregate rate).
func measureLatencies(stderr io.Writer, addr string, nBodies, conns, reqBatch int,
	window time.Duration, wire comm.WireFormat, arrivalRate float64) (measured, []time.Duration) {
	var completed atomic.Int64
	var mu sync.Mutex
	var lats []time.Duration
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := comm.Dial(addr, comm.WithWire(wire))
			if err != nil {
				fmt.Fprintf(stderr, "dial: %v\n", err)
				return
			}
			defer client.Close()
			commtest.Wire(client, benchArch(), nBodies)
			x := commtest.Input(benchArch(), 7, reqBatch)
			ctx := context.Background()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			mine := make([]time.Duration, 0, 1024)
			for time.Now().Before(deadline) {
				if arrivalRate > 0 {
					gap := time.Duration(rng.ExpFloat64() / (arrivalRate / float64(conns)) * float64(time.Second))
					time.Sleep(gap)
					if !time.Now().Before(deadline) {
						break
					}
				}
				t0 := time.Now()
				_, _, err := client.Infer(ctx, x)
				if err != nil {
					if errors.Is(err, comm.ErrOverloaded) {
						continue // shed: admission control working as designed
					}
					fmt.Fprintf(stderr, "infer: %v\n", err)
					return
				}
				mine = append(mine, time.Since(t0))
				completed.Add(1)
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return measured{reqPerSec: float64(completed.Load()) / window.Seconds()}, lats
}

// writeBenchReport writes one report as indented JSON.
func writeBenchReport(path string, report BenchReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding bench report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing bench report: %w", err)
	}
	return nil
}

// measureThroughput counts completed requests across `conns` connections
// hammering the server for the window, with whole-process allocation and GC
// pause accounting (the allocs/req figure includes the in-process clients —
// an upper bound on the server's own allocations, which the alloc-pin tests
// hold at zero for the compute+codec loop).
func measureThroughput(stderr io.Writer, addr string, nBodies, conns, reqBatch int, window time.Duration, wire comm.WireFormat) measured {
	var completed atomic.Int64
	var bytesUp, bytesDown atomic.Int64
	deadline := time.Now().Add(window)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := comm.Dial(addr, comm.WithWire(wire))
			if err != nil {
				fmt.Fprintf(stderr, "dial: %v\n", err)
				return
			}
			defer client.Close()
			commtest.Wire(client, benchArch(), nBodies)
			x := commtest.Input(benchArch(), 7, reqBatch)
			ctx := context.Background()
			for time.Now().Before(deadline) {
				_, timing, err := client.Infer(ctx, x)
				if err != nil {
					fmt.Fprintf(stderr, "infer: %v\n", err)
					return
				}
				completed.Add(1)
				bytesUp.Store(int64(timing.BytesUp))
				bytesDown.Store(int64(timing.BytesDown))
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	m := measured{
		reqPerSec: float64(completed.Load()) / window.Seconds(),
		bytesUp:   int(bytesUp.Load()),
		bytesDown: int(bytesDown.Load()),
		gcCount:   after.NumGC - before.NumGC,
		gcPauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
	if n := completed.Load(); n > 0 {
		m.allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	for i := before.NumGC; i < after.NumGC; i++ {
		if p := float64(after.PauseNs[i%uint32(len(after.PauseNs))]) / 1e6; p > m.gcMaxMs {
			m.gcMaxMs = p
		}
	}
	return m
}

// compareReports gates the current serving run against a committed baseline
// report. allocs/req is host-independent and gates unconditionally (with a
// small absolute slack for GC accounting noise). The concurrency speedup
// and raw req/s gate only when the baseline ran at the same effective
// parallelism: absolute throughput obviously measures the hardware, and
// the speedup is itself a function of min(workers, GOMAXPROCS) — a
// baseline regenerated on a multi-core host predicts >2× where a
// single-core runner can only measure ≈1× (the very lesson of the
// BENCH_2026-07-30 post-mortem).
func compareReports(stdout io.Writer, baselinePath string, current *BenchReport, tolerance float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var baseline BenchReport
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	find := func(r *BenchReport, name string) (BenchResult, bool) {
		for _, res := range r.Results {
			if res.Name == name {
				return res, true
			}
		}
		return BenchResult{}, false
	}
	var failures []string
	check := func(metric string, baseVal, curVal float64, lowerIsBetter bool, slack float64) {
		var regressed bool
		if lowerIsBetter {
			regressed = curVal > baseVal*(1+tolerance)+slack
		} else {
			regressed = curVal < baseVal*(1-tolerance)-slack
		}
		verdict := "ok"
		if regressed {
			verdict = "REGRESSED"
			failures = append(failures, metric)
		}
		fmt.Fprintf(stdout, "  %-22s baseline %10.2f  current %10.2f  (±%.0f%%)  %s\n",
			metric, baseVal, curVal, 100*tolerance, verdict)
	}
	fmt.Fprintf(stdout, "\nperf gate against %s:\n", baselinePath)
	if base, ok := find(&baseline, "allocs_per_req"); ok {
		if cur, ok2 := find(current, "allocs_per_req"); ok2 {
			check("allocs_per_req", base.Value, cur.Value, true, 8)
		}
	}
	// A report predating the float32 backend recorded no compute precision;
	// everything it measured ran the f64 reference kernels.
	precisionOf := func(c *BenchConfig) string {
		if c.Precision == "" {
			return "f64"
		}
		return c.Precision
	}
	samePrecision := precisionOf(&baseline.Config) == precisionOf(&current.Config)
	sameHostShape := baseline.Config.EffectiveParallelism == current.Config.EffectiveParallelism &&
		baseline.Config.EffectiveParallelism > 0 && samePrecision
	skip := func(metric string, baseVal, curVal float64) {
		reason := fmt.Sprintf("baseline ran at parallelism %d, this host %d",
			baseline.Config.EffectiveParallelism, current.Config.EffectiveParallelism)
		if !samePrecision {
			reason = fmt.Sprintf("baseline measured %s compute, this run %s",
				precisionOf(&baseline.Config), precisionOf(&current.Config))
		}
		fmt.Fprintf(stdout, "  %-22s baseline %10.2f  current %10.2f  skipped (%s)\n",
			metric, baseVal, curVal, reason)
	}
	if base, ok := find(&baseline, "speedup"); ok {
		if cur, ok2 := find(current, "speedup"); ok2 {
			if sameHostShape {
				check("speedup", base.Value, cur.Value, false, 0)
			} else {
				skip("speedup", base.Value, cur.Value)
			}
		}
	}
	// serve_batched only exists in reports measured with -batch-window;
	// baselines predating the dispatcher (or runs without the flag) simply
	// skip the series rather than failing the gate.
	for _, name := range []string{"serve_single_connection", fmt.Sprintf("serve_concurrent_%d", current.Config.Clients), "serve_batched"} {
		base, ok := find(&baseline, name)
		cur, ok2 := find(current, name)
		if !ok || !ok2 {
			continue
		}
		if sameHostShape {
			check(name+" req/s", base.ReqPerSec, cur.ReqPerSec, false, 0)
		} else {
			skip(name+" req/s", base.ReqPerSec, cur.ReqPerSec)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("perf gate failed: %v regressed beyond %.0f%%", failures, 100*tolerance)
	}
	fmt.Fprintf(stdout, "  perf gate passed\n")
	return nil
}
