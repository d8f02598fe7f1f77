// Benchmarks regenerating the paper's evaluation. One benchmark exists per
// table of the paper (Tables I-III) plus ablation benches for the §III-D
// claims and serving benches for the concurrent deployment path; the
// architecture-diagram figures (Figs. 1-2) are reproduced functionally by
// the examples (see DESIGN.md §4).
//
// The table benches print the regenerated rows to stdout; each iteration
// performs the full experiment, so Go's default -benchtime runs them exactly
// once. Set ENSEMBLER_BENCH_SCALE=paper for the paper-matched operating
// point (N=10; expect tens of minutes).
package ensembler_test

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ensembler/internal/attack"
	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/data"
	"ensembler/internal/defense"
	"ensembler/internal/ensemble"
	"ensembler/internal/experiments"
	"ensembler/internal/flops"
	"ensembler/internal/latency"
	"ensembler/internal/nn"
	"ensembler/internal/registry"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// benchScale picks the experiment operating point.
func benchScale() experiments.Scale {
	if os.Getenv("ENSEMBLER_BENCH_SCALE") == "paper" {
		return experiments.Paper()
	}
	return experiments.Small()
}

// BenchmarkTableI regenerates Table I: defense quality of Single vs
// Ours-{Adaptive, SSIM, PSNR} across the three workloads.
func BenchmarkTableI(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		blocks := experiments.TableI(sc, 42, nil)
		for _, blk := range blocks {
			experiments.RenderRows(os.Stdout,
				fmt.Sprintf("\nTable I — %s (N=%d, P=%d)", blk.Kind, sc.N, blk.P), blk.Rows)
		}
	}
}

// BenchmarkTableII lives in internal/experiments/bench_test.go: Table I and
// Table II together exceed go test's default 10-minute per-package timeout,
// so the two heavyweight regenerators are split across packages. Both still
// run under `go test -bench=. ./...`.

// BenchmarkTableIII regenerates Table III: the latency cost model for
// Standard CI, Ensembler (N=10), and the STAMP reference.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.TableIII(10)
		if i == 0 {
			experiments.RenderTableIII(os.Stdout, rows)
			fmt.Printf("Ensembler overhead vs Standard CI: %.1f%% (paper: 4.8%%)\n",
				latency.OverheadPercent(10))
		}
	}
}

// BenchmarkParallelServers reproduces the §III-D claim that the O(N) server
// cost parallelizes: Ensembler total latency versus server parallelism.
func BenchmarkParallelServers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := latency.ParallelismSweep(10, []int{1, 2, 5, 10})
		if i == 0 {
			for _, r := range rows {
				fmt.Println(r)
			}
		}
	}
}

// BenchmarkBruteForceCost reproduces the §III-D claim that a brute-force
// MIA must search O(2^N) subsets.
func BenchmarkBruteForceCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if i == 0 {
			for _, n := range []int{5, 10, 20} {
				fmt.Printf("N=%2d: %.0f candidate subsets\n", n, ensemble.SubsetCount(n))
			}
		} else {
			ensemble.SubsetCount(10)
		}
	}
}

// --- Microbenchmarks of the substrate hot paths ---

func benchArch() split.Arch {
	return split.DefaultArch(data.CIFAR10Like)
}

// BenchmarkConvForward measures the im2col convolution kernel (the dominant
// cost of every training and attack loop).
func BenchmarkConvForward(b *testing.B) {
	r := rng.New(1)
	x := tensor.New(32, 8, 16, 16)
	r.FillNormal(x.Data, 0, 1)
	w := tensor.New(16, 8*9)
	r.FillNormal(w.Data, 0, 0.1)
	bias := tensor.New(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.ConvForward(x, w, bias, 3, 3, 1, 1)
	}
}

// BenchmarkHeadForward measures one client-head pass (what an edge device
// computes per batch).
func BenchmarkHeadForward(b *testing.B) {
	head := benchArch().NewHead("h", rng.New(2))
	x := tensor.New(16, 3, 16, 16)
	rng.New(3).FillNormal(x.Data, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		head.Forward(x, false)
	}
}

// benchBody builds one benchArch server body with batch-norm running
// statistics populated, plus a one-image input: the unit of work a server
// repeats N times per request.
func benchBody() (*nn.Network, *tensor.Tensor) {
	arch := benchArch()
	body := arch.NewBody("b", rng.New(4))
	warm := tensor.New(16, arch.HeadC, arch.H, arch.W)
	rng.New(5).FillNormal(warm.Data, 0, 1)
	body.Forward(warm, true) // populate batch-norm running stats
	x := tensor.New(1, arch.HeadC, arch.H, arch.W)
	rng.New(6).FillNormal(x.Data, 0, 1)
	return body, x
}

// BenchmarkBodyForwardInfer measures one f64 server-body pass on the
// inference path the server runs (Network.ForwardInfer over a warmed
// scratch).
func BenchmarkBodyForwardInfer(b *testing.B) {
	body, x := benchBody()
	s := body.InferScratch(x.Shape...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.ForwardInfer(x, s)
		s.Reset()
	}
}

// BenchmarkBodyForwardInfer32 is BenchmarkBodyForwardInfer on the compiled
// float32 body (-precision f32).
func BenchmarkBodyForwardInfer32(b *testing.B) {
	body, x := benchBody()
	n32, err := nn.CompileF32(body)
	if err != nil {
		b.Fatal(err)
	}
	x32 := tensor.Narrow32(x)
	s := n32.InferScratch(x.Shape...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n32.ForwardInfer(x32, s)
		s.Reset()
	}
}

// BenchmarkDecoderReconstruct measures the attacker's inversion throughput.
func BenchmarkDecoderReconstruct(b *testing.B) {
	arch := benchArch()
	dec := attack.NewDecoder(arch, rng.New(6))
	f := tensor.New(16, arch.HeadC, 16, 16)
	rng.New(7).FillNormal(f.Data, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Reconstruct(f)
	}
}

// BenchmarkSelectorApply measures the client's secret selection + concat.
func BenchmarkSelectorApply(b *testing.B) {
	sel := ensemble.FixedSelector(10, []int{1, 3, 5, 7})
	feats := make([]*tensor.Tensor, 10)
	r := rng.New(8)
	for i := range feats {
		feats[i] = tensor.New(32, 32)
		r.FillNormal(feats[i].Data, 0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Apply(feats)
	}
}

// BenchmarkTrainingStep measures one SGD step of the single-pipeline
// training loop (forward + backward + update).
func BenchmarkTrainingStep(b *testing.B) {
	arch := benchArch()
	m := split.NewModel("m", arch, 0.05, nn.NoiseFixed, 0, rng.New(9))
	x := tensor.New(16, 3, 16, 16)
	rng.New(10).FillNormal(x.Data, 0, 1)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % arch.Classes
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(x, true)
		_, grad := nn.SoftmaxCrossEntropy(logits, labels)
		m.Backward(grad)
		m.Head.ZeroGrad()
		m.Body.ZeroGrad()
		m.Tail.ZeroGrad()
	}
}

// BenchmarkOracleAttack measures the diagnostic upper-bound attack on a
// pretrained tiny pipeline (shadow-free decoder training excluded).
func BenchmarkOracleAttack(b *testing.B) {
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, W: 8, Train: 64, Aux: 32, Test: 16, Seed: 11})
	arch := split.Arch{InC: 3, H: 8, W: 8, HeadC: 4, BlockWidths: []int{8, 16}, Classes: 10, UseMaxPool: true}
	none := defense.TrainNone(arch, sp.Train, split.TrainOptions{Epochs: 1, BatchSize: 16, LR: 0.05}, 12)
	cfg := attack.Config{Arch: arch, DecoderEpochs: 1, BatchSize: 16, Seed: 13}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attack.OracleDecoderAttack(cfg, none, sp.Aux, sp.Test, 8)
	}
}

// BenchmarkFLOPsSpec measures building the full ResNet-18 cost spec.
func BenchmarkFLOPsSpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		flops.ResNet18(32, 10, true)
	}
}

// --- Serving throughput under concurrency ---
//
// The pair below demonstrates the concurrent serving subsystem: the same
// loopback server measured from one connection and from eight simultaneous
// connections. On a multi-core host the replicated worker pool turns the
// extra connections into parallel body computation, so the concurrent
// variant's ns/op (time per request) drops well below the single-connection
// number — the >2× throughput regime modeled by latency.ConcurrencySweep.
// Compare with:
//
//	go test -bench 'BenchmarkServe' -run '^$' .

const servingConns = 8

// startServingBench boots a replicated worker-pool server over the shared
// commtest harness on loopback and returns its address plus a shutdown
// function. Kernel-level parallelism is pinned to 1 for the bench's
// lifetime: the worker pool is the serving path's one level of parallelism,
// and nested kernel goroutines only oversubscribe the cores it already owns.
func startServingBench(b *testing.B, nBodies int) (string, func()) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	arch := benchArch()
	srv := comm.NewServer(commtest.Bodies(arch, nBodies),
		comm.WithWorkers(runtime.GOMAXPROCS(0)),
		comm.WithReplicas(func() []*nn.Network { return commtest.Bodies(arch, nBodies) }),
	)
	comm.PinKernelParallelism(srv.Workers())
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	return ln.Addr().String(), func() {
		cancel()
		ln.Close()
		<-served
		tensor.SetKernelParallelism(0)
	}
}

// servingClient dials and wires one raw-protocol client (identity head,
// concat-all selector, private tail).
func servingClient(b *testing.B, addr string, nBodies int) *comm.Client {
	b.Helper()
	client, err := comm.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	commtest.Wire(client, benchArch(), nBodies)
	return client
}

// servingInput builds the fixed per-request feature batch.
func servingInput() *tensor.Tensor {
	return commtest.Input(benchArch(), 7, 4)
}

// BenchmarkServeSingleConnection measures request latency (= 1/throughput)
// over one connection. The reported allocs/op are the CLIENT side of the
// round trip (response decode and tail forward — tensors that escape to the
// caller by design); the server's per-request compute+codec loop is pinned
// at 0 allocs/op by internal/comm's BenchmarkServeRequestLoop and
// TestServerComputeLoopZeroAllocs.
func BenchmarkServeSingleConnection(b *testing.B) {
	const nBodies = 4
	addr, shutdown := startServingBench(b, nBodies)
	defer shutdown()
	client := servingClient(b, addr, nBodies)
	defer client.Close()
	x := servingInput()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.Infer(ctx, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeConcurrentConnections distributes b.N requests over eight
// simultaneous connections; per-request ns/op directly compares against
// BenchmarkServeSingleConnection.
func BenchmarkServeConcurrentConnections(b *testing.B) {
	const nBodies = 4
	addr, shutdown := startServingBench(b, nBodies)
	defer shutdown()
	clients := make([]*comm.Client, servingConns)
	for i := range clients {
		clients[i] = servingClient(b, addr, nBodies)
		defer clients[i].Close()
	}
	x := servingInput()
	ctx := context.Background()
	requests := make(chan struct{})
	var failed atomic.Bool
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, client := range clients {
		wg.Add(1)
		go func(client *comm.Client) {
			defer wg.Done()
			// Keep draining after a failure so the b.N send loop below never
			// deadlocks on a channel with no receivers.
			for range requests {
				if failed.Load() {
					continue
				}
				if _, _, err := client.Infer(ctx, x); err != nil {
					b.Error(err)
					failed.Store(true)
				}
			}
		}(client)
	}
	for i := 0; i < b.N; i++ {
		requests <- struct{}{}
	}
	close(requests)
	wg.Wait()
}

// BenchmarkServeBatchedRequests carries the same four-image payload as the
// single-connection bench but packs four payloads per round trip; ns/op is
// per request of four inputs.
func BenchmarkServeBatchedRequests(b *testing.B) {
	const nBodies = 4
	addr, shutdown := startServingBench(b, nBodies)
	defer shutdown()
	client := servingClient(b, addr, nBodies)
	defer client.Close()
	x := servingInput()
	batch := []*tensor.Tensor{x, x, x, x}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.InferBatch(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotSwap measures the registry's zero-downtime swap: eight
// clients hammer a registry-backed server while each iteration publishes a
// new model version (even iterations) or rotates the secret selector (odd
// iterations) and waits until a response is actually served from the new
// epoch. ns/op is therefore the end-to-end swap propagation latency under
// load; the reported dropped-request count must be zero — the hot-swap
// guarantee this subsystem exists for.
func BenchmarkHotSwap(b *testing.B) {
	const (
		nBodies = 4
		conns   = 8
	)
	arch := benchArch()
	reg := registry.New(nil)
	if _, err := reg.Publish("bench", commtest.Pipeline(arch, nBodies, 2, 1)); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := comm.NewModelServer(reg, comm.WithWorkers(runtime.GOMAXPROCS(0)))
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		ln.Close()
		<-served
	}()

	x := servingInput()
	var (
		dropped  atomic.Int64
		maxSeen  atomic.Int64
		load     sync.WaitGroup
		stopLoad = make(chan struct{})
	)
	maxSeen.Store(1)
	for i := 0; i < conns; i++ {
		client := servingClient(b, ln.Addr().String(), nBodies)
		defer client.Close()
		load.Add(1)
		go func(client *comm.Client) {
			defer load.Done()
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				if _, _, err := client.Infer(ctx, x); err != nil {
					dropped.Add(1)
					continue
				}
				_, v := client.Served()
				for {
					seen := maxSeen.Load()
					if int64(v) <= seen || maxSeen.CompareAndSwap(seen, int64(v)) {
						break
					}
				}
			}
		}(client)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var target int
		if i%2 == 0 {
			b.StopTimer()
			next := commtest.Pipeline(arch, nBodies, 2, int64(i+2)) // build off the clock
			b.StartTimer()
			ep, err := reg.Publish("bench", next)
			if err != nil {
				b.Fatal(err)
			}
			target = ep.Version()
		} else {
			ep, err := reg.RotateSelector("bench", ensemble.RotateOptions{Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			target = ep.Version()
		}
		// The swap counts only once a response actually arrives from the new
		// epoch at some client; a propagation regression must fail loudly,
		// not hang the harness.
		deadline := time.Now().Add(30 * time.Second)
		for maxSeen.Load() < int64(target) {
			if time.Now().After(deadline) {
				b.Fatalf("no client observed v%d within 30s (%d requests dropped so far)", target, dropped.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	b.StopTimer()
	close(stopLoad)
	load.Wait()
	b.ReportMetric(float64(dropped.Load()), "dropped")
	if n := dropped.Load(); n != 0 {
		b.Fatalf("hot swap dropped %d requests, want 0", n)
	}
}

// BenchmarkServingModel evaluates the analytic concurrency/batching model
// (the planning-time counterpart of the live benches above).
func BenchmarkServingModel(b *testing.B) {
	base := latency.Ensembler(10)
	maxPar := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		rows := latency.ConcurrencySweep(base, 4, maxPar, 1, []int{1, 2, 4, 8, 16})
		if i == 0 {
			for _, r := range rows {
				fmt.Println(r)
			}
			fmt.Printf("predicted speedup, 8 clients vs 1 (host parallelism %d): %.2f×\n",
				maxPar, latency.ConcurrencySpeedup(base, 4, maxPar, 1, 8))
		}
	}
}
