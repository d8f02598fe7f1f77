package latency

import "fmt"

// This file models the serving regimes of the comm subsystem: many client
// connections, a bounded pool of server-side workers (each holding a private
// replica of the N bodies), and batched requests that amortize protocol
// overhead. It is the analytic counterpart of the throughput benchmark in
// bench_test.go, built as a closed queueing system: each of C clients keeps
// exactly one request in flight, the server completes at most one request
// per worker every S seconds, and the round-trip time seen by an unloaded
// client is client compute + transfer + server compute.

// ServingScenario describes one operating point of the concurrent server.
type ServingScenario struct {
	Base    Scenario // device/link/model parameters; Base.Batch is ignored
	Workers int      // server worker replicas computing in parallel
	Clients int      // concurrent client connections, one request in flight each
	Batch   int      // images per request (InferBatch size × client batch)

	// EffectiveParallel caps how many workers actually compute
	// concurrently — the host's usable cores (GOMAXPROCS on the bench
	// host). A pool of 8 workers on 1 core serves like 1 worker; the
	// measured-vs-modeled gap of BENCH_2026-07-30 (0.94× measured against
	// 4.5× predicted) was exactly this clamp going unmodeled. 0 means
	// Workers (the historical, unclamped behavior).
	EffectiveParallel int

	// WireFactor scales transferred bytes relative to the float32 payload
	// the Table III link model assumes: WireFactorBinary for float64
	// payloads, WireFactorBinaryF32 for float32. 0 means 1
	// (float32-equivalent bytes).
	WireFactor float64

	// ComputeFactor scales the server-side body-pass time relative to the
	// float64 reference kernels the base scenario's FLOP model is calibrated
	// against: ComputeFactorF64 for the reference path, ComputeFactorF32 for
	// the float32 backend. Client compute is not scaled — the
	// tail stays with the client at whatever precision it chooses, and the
	// serving model only commits to the server's. 0 means 1 (float64).
	ComputeFactor float64
}

// Wire factors for the serving model, relative to raw float32 payloads.
const (
	// WireFactorBinary: the wire codec with float64 payloads — twice the
	// float32 bytes, negligible framing.
	WireFactorBinary = 2.0
	// WireFactorBinaryF32: the wire codec shipping float32 — the link
	// model's native operating point.
	WireFactorBinaryF32 = 1.0
)

// Compute factors for the serving model, relative to the float64 reference
// kernels. Measured as the default-arch body-pass ratio
// BenchmarkBodyForwardInfer32 / BenchmarkBodyForwardInfer (root package),
// ten interleaved runs on a 2-core Xeon host: median 0.30, range 0.25–0.44.
// gc emits scalar code for both precisions, so the gap is kernel design —
// the f32 convolution's im2row, register-blocked micro-kernel against the
// f64 oracle's panel-wise matmul — more than precision.
const (
	// ComputeFactorF64: the reference float64 path the FLOP model is
	// calibrated against.
	ComputeFactorF64 = 1.0
	// ComputeFactorF32: the float32 backend's body pass.
	ComputeFactorF32 = 0.3
)

// effectiveWorkers applies the host-parallelism clamp.
func (sc ServingScenario) effectiveWorkers() int {
	if sc.EffectiveParallel > 0 && sc.EffectiveParallel < sc.Workers {
		return sc.EffectiveParallel
	}
	return sc.Workers
}

// ServingEstimate is the model's prediction for one serving scenario.
type ServingEstimate struct {
	Name string
	// RequestSeconds is the unloaded round-trip latency of one request.
	RequestSeconds float64
	// ThroughputRPS is the sustained request rate with all clients active.
	ThroughputRPS float64
	// ThroughputIPS is the sustained image rate (requests × batch).
	ThroughputIPS float64
	// Utilization is the fraction of worker capacity kept busy.
	Utilization float64
}

// String formats one row of the serving table.
func (e ServingEstimate) String() string {
	return fmt.Sprintf("%-18s rtt %.3fs  %.2f req/s  %.1f img/s  util %.0f%%",
		e.Name, e.RequestSeconds, e.ThroughputRPS, e.ThroughputIPS, 100*e.Utilization)
}

// servingTimes evaluates the base scenario at the serving operating point,
// returning the unloaded round-trip time and the per-request server time.
// The wire factor scales only the communication component.
func servingTimes(sc *ServingScenario) (request, service float64) {
	base := sc.Base
	if sc.Batch <= 0 {
		sc.Batch = 1
	}
	if sc.Workers <= 0 {
		sc.Workers = 1
	}
	if sc.Clients <= 0 {
		sc.Clients = 1
	}
	wire := sc.WireFactor
	if wire <= 0 {
		wire = 1
	}
	compute := sc.ComputeFactor
	if compute <= 0 {
		compute = 1
	}
	base.Batch = sc.Batch
	b := Run(base)
	server := compute * b.Server
	return b.Client + server + wire*b.Communication, server
}

// EstimateServing evaluates the closed-system model: throughput is bounded
// both by the clients' request-issue rate (Clients / round-trip) and by the
// server pool's service rate (Workers / server-time-per-request).
func EstimateServing(sc ServingScenario) ServingEstimate {
	return EstimateServingRotated(sc, Rotation{})
}

// Rotation models the hot-swap cadence of the registry subsystem: every
// PeriodSeconds a new epoch is published (a selector rotation or a model
// publish), and each serving worker lazily rebuilds its private body
// replicas once per epoch, costing CloneSeconds of that worker's capacity.
type Rotation struct {
	// PeriodSeconds is the time between epoch swaps; <= 0 means never.
	PeriodSeconds float64
	// CloneSeconds is the time one worker spends re-cloning its N-body
	// replica set when it first sees a new epoch.
	CloneSeconds float64
}

// OverheadFraction returns the fraction of each worker's capacity spent
// re-cloning: CloneSeconds out of every PeriodSeconds, clamped to [0,1].
// The cost is per worker but does not grow with the pool — every worker
// pays one clone per epoch, concurrently, as requests arrive.
func (r Rotation) OverheadFraction() float64 {
	if r.PeriodSeconds <= 0 || r.CloneSeconds <= 0 {
		return 0
	}
	f := r.CloneSeconds / r.PeriodSeconds
	if f > 1 {
		return 1
	}
	return f
}

// EstimateServingRotated evaluates the closed-system model under a rotation
// cadence: the server pool's effective capacity shrinks by the overhead
// fraction while the unloaded round-trip time is unchanged (a request never
// waits on a clone already paid for by its worker). A zero Rotation is
// exactly EstimateServing. This is the analytic counterpart of
// BenchmarkHotSwap: rotation bounds what a curious server accumulates
// against one selector, and this term prices that privacy.
func EstimateServingRotated(sc ServingScenario, rot Rotation) ServingEstimate {
	request, service := servingTimes(&sc)
	// A pool larger than the host's usable cores serves at the cores' rate:
	// the extra workers only queue (see ServingScenario.EffectiveParallel).
	workers := sc.effectiveWorkers()
	capacity := float64(workers) * (1 - rot.OverheadFraction())
	x := float64(sc.Clients) / request
	if service > 0 {
		if serverBound := capacity / service; serverBound < x {
			x = serverBound
		}
	}
	return ServingEstimate{
		Name:           servingName(sc, rot),
		RequestSeconds: request,
		ThroughputRPS:  x,
		ThroughputIPS:  x * float64(sc.Batch),
		Utilization:    x * service / float64(workers),
	}
}

// servingName labels one serving estimate row.
func servingName(sc ServingScenario, rot Rotation) string {
	name := fmt.Sprintf("c=%d w=%d b=%d", sc.Clients, sc.Workers, sc.Batch)
	if sc.effectiveWorkers() < sc.Workers {
		name += fmt.Sprintf(" par=%d", sc.effectiveWorkers())
	}
	if rot.OverheadFraction() > 0 {
		name += fmt.Sprintf(" rot=%.0fs", rot.PeriodSeconds)
	}
	return name
}

// RotationSweep evaluates a serving scenario across rotation periods — the
// planning question the registry's -rotate-every flag asks: how often can
// the selector rotate before the hot-swap overhead bites into throughput?
func RotationSweep(base Scenario, workers, clients, batch int, cloneSeconds float64, periods []float64) []ServingEstimate {
	out := make([]ServingEstimate, len(periods))
	for i, p := range periods {
		out[i] = EstimateServingRotated(
			ServingScenario{Base: base, Workers: workers, Clients: clients, Batch: batch},
			Rotation{PeriodSeconds: p, CloneSeconds: cloneSeconds})
	}
	return out
}

// ConcurrencySweep evaluates the scenario across client counts — the model
// behind the ">2× throughput under concurrency" serving claim: a single
// connection is round-trip-bound, so adding clients raises throughput until
// the worker pool saturates. maxParallel clamps the pool to the host's
// usable cores (pass the measured GOMAXPROCS; 0 leaves the pool unclamped):
// predictions are only comparable to a measurement when both ran at the
// same effective parallelism.
func ConcurrencySweep(base Scenario, workers, maxParallel, batch int, clients []int) []ServingEstimate {
	out := make([]ServingEstimate, len(clients))
	for i, c := range clients {
		out[i] = EstimateServing(ServingScenario{
			Base: base, Workers: workers, Clients: c, Batch: batch, EffectiveParallel: maxParallel})
	}
	return out
}

// ConcurrencySpeedup returns the predicted throughput ratio between clients
// concurrent connections and a single connection at the same batch size,
// with the pool clamped to maxParallel usable cores (0 = unclamped). At
// maxParallel=1 the prediction collapses toward 1× — the regime the
// GOMAXPROCS=1 bench of BENCH_2026-07-30 actually measured.
func ConcurrencySpeedup(base Scenario, workers, maxParallel, batch, clients int) float64 {
	one := EstimateServing(ServingScenario{
		Base: base, Workers: workers, Clients: 1, Batch: batch, EffectiveParallel: maxParallel})
	many := EstimateServing(ServingScenario{
		Base: base, Workers: workers, Clients: clients, Batch: batch, EffectiveParallel: maxParallel})
	return many.ThroughputRPS / one.ThroughputRPS
}
