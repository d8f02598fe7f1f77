package comm

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// startTracedServer runs a server with the given tracer attached and returns
// its address plus a shutdown func.
func startTracedServer(t *testing.T, tr *trace.Tracer, extra ...ServerOption) (string, func()) {
	t.Helper()
	opts := append([]ServerOption{WithTracer(tr)}, extra...)
	srv := NewServer(instrumentBodies(2), opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	return ln.Addr().String(), func() {
		cancel()
		ln.Close()
		<-served
	}
}

func wireTracedClient(t *testing.T, c *Client) {
	t.Helper()
	c.ComputeFeatures = func(x *tensor.Tensor) *tensor.Tensor { return x }
	c.Select = nn.ConcatFeatures
	c.Tail = nn.NewNetwork("t", nn.NewLinear("fc", 2*4*8*8, 3, rng.New(5)))
}

// waitForTrace polls until the tracer retains at least want legs of id.
func waitForTrace(t *testing.T, tr *trace.Tracer, id uint64, want int) []trace.Record {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if legs := tr.TraceByID(id); len(legs) >= want {
			return legs
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("trace %016x never reached %d retained legs", id, want)
	return nil
}

// TestTracedRoundTripEchoesIDAndRetainsLeg is the wire half of the tentpole:
// a client-supplied trace context rides a v3 binary connection, the server
// echoes the ID on the response, and the server's leg — with its decode,
// queue, forward, and encode spans — lands in the tracer's ring because the
// upstream Sampled flag forces retention.
func TestTracedRoundTripEchoesIDAndRetainsLeg(t *testing.T) {
	tr := trace.New(trace.Config{SampleRate: -1, SlowestN: -1})
	addr, shutdown := startTracedServer(t, tr)
	defer shutdown()

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wireTracedClient(t, client)

	ctx := context.Background()
	x := instrumentInput(1)

	// Untraced request first: no context set, so the response must not echo.
	if _, _, err := client.Infer(ctx, x); err != nil {
		t.Fatal(err)
	}
	if got := client.LastTraceID(); got != 0 {
		t.Fatalf("untraced request echoed trace ID %016x", got)
	}

	tc := trace.Context{ID: tr.NewID(), Sampled: true}
	client.Trace = tc
	if _, _, err := client.Infer(ctx, x); err != nil {
		t.Fatal(err)
	}
	if got := client.LastTraceID(); got != tc.ID {
		t.Fatalf("echoed trace ID = %016x, want %016x", got, tc.ID)
	}

	legs := waitForTrace(t, tr, tc.ID, 1)
	leg := legs[0]
	if !leg.Forced {
		t.Fatal("upstream-sampled leg not marked forced")
	}
	if leg.Err || leg.Shed {
		t.Fatalf("healthy leg flags err=%v shed=%v", leg.Err, leg.Shed)
	}
	for _, s := range []trace.Stage{trace.StageQueue, trace.StageForward, trace.StageEncode} {
		found := false
		for i := 0; i < leg.N; i++ {
			if leg.Spans[i].Stage == s {
				found = true
			}
		}
		if !found {
			t.Errorf("server leg missing %s span (has %d spans)", s, leg.N)
		}
	}
	// The stage spans must fit inside the leg: attribution that exceeds the
	// measured total is double-counting.
	var sum int64
	for i := 0; i < leg.N; i++ {
		sum += leg.Spans[i].Dur
	}
	if sum > leg.Dur*11/10 {
		t.Errorf("span durations sum to %v, exceeding leg total %v", time.Duration(sum), time.Duration(leg.Dur))
	}

	// A failed request retains with the error flag even without Sampled.
	client.Trace = trace.Context{ID: tr.NewID()}
	if _, _, err := client.Infer(ctx, tensor.New(4, 8, 8)); err == nil {
		t.Fatal("rank-3 features must be rejected")
	}
	failedLegs := waitForTrace(t, tr, client.Trace.ID, 1)
	if !failedLegs[0].Err {
		t.Fatal("failed request's leg not marked as error")
	}
}

// TestShedRequestProducesCompleteTrace floods a one-slot intake queue and
// asserts the tail-sampling promise that motivates it: every shed request's
// trace is retained, carrying the terminal shed span, even though the
// probabilistic coin is off — overload is exactly when you need to see who
// was turned away.
func TestShedRequestProducesCompleteTrace(t *testing.T) {
	tr := trace.New(trace.Config{SampleRate: -1, SlowestN: -1, Capacity: 512})
	addr, shutdown := startTracedServer(t, tr,
		WithBatchWindow(10*time.Millisecond), WithMaxQueue(1), WithWorkers(1))
	defer shutdown()

	const clients = 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	sheds := 0
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client, err := Dial(addr)
			if err != nil {
				return
			}
			defer client.Close()
			wireTracedClient(t, client)
			x := instrumentInput(1)
			for i := 0; i < 20; i++ {
				client.Trace = trace.Context{ID: tr.NewID()}
				_, _, err := client.Infer(context.Background(), x)
				if errors.Is(err, ErrOverloaded) {
					mu.Lock()
					sheds++
					mu.Unlock()
				} else if err != nil {
					return // transport failure under the flood: other clients carry on
				}
			}
		}(id)
	}
	wg.Wait()
	if sheds == 0 {
		t.Skip("flood produced no sheds on this host; nothing to assert")
	}
	// Every shed must be a retained record with the terminal shed span.
	deadline := time.Now().Add(5 * time.Second)
	var shedRecs []trace.Record
	for time.Now().Before(deadline) {
		shedRecs = shedRecs[:0]
		for _, r := range tr.Snapshot() {
			if r.Shed {
				shedRecs = append(shedRecs, r)
			}
		}
		if len(shedRecs) >= sheds {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(shedRecs) < sheds {
		t.Fatalf("%d sheds observed by clients but only %d shed traces retained", sheds, len(shedRecs))
	}
	for _, r := range shedRecs {
		if r.StageDur(trace.StageShed) < 0 {
			t.Fatal("negative shed span")
		}
		found := false
		for i := 0; i < r.N; i++ {
			if r.Spans[i].Stage == trace.StageShed {
				found = true
			}
		}
		if !found {
			t.Fatalf("shed trace %016x has no terminal shed span (%d spans)", r.ID, r.N)
		}
	}
}

// BenchmarkServeRequestLoopTraced is BenchmarkServeRequestLoopBatched with a
// rate-1 tracer attached — every request records spans AND retains into the
// ring. The allocation report is the acceptance gate: tracing must add zero
// allocations to the batched serving loop even in this worst case (CI greps
// for 0 allocs/op).
func BenchmarkServeRequestLoopTraced(b *testing.B) {
	benchTracedLoop(b, trace.New(trace.Config{SampleRate: 1, SlowestN: 4, Capacity: 256}))
}

// BenchmarkServeRequestLoopTracedDefault is the same loop at the default 1%
// sample rate — the production configuration. CI holds its ns/op to within
// 5% of the untraced BenchmarkServeRequestLoopBatched.
func BenchmarkServeRequestLoopTracedDefault(b *testing.B) {
	benchTracedLoop(b, trace.New(trace.Config{Capacity: 256}))
}

func benchTracedLoop(b *testing.B, tr *trace.Tracer) {
	const (
		nBodies = 4
		K       = 4
	)
	srv := NewServer(codecBodies(nBodies), WithWorkers(2),
		WithReplicas(func() []*nn.Network { return codecBodies(nBodies) }),
		WithTracer(tr))
	body, err := appendRequest(nil, &Request{Features: wireTensor(330, 1, 4, 8, 8)}, false, trace.Context{})
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]*job, K)
	for i := range jobs {
		jobs[i] = newJob()
	}
	batch := &dispatchBatch{}
	replicas := newReplicaCache(PrecisionF64)
	encBuf := make([]byte, 0, 1<<20)
	cycle := func() {
		for _, j := range jobs {
			if err := parseRequestInto(body, &j.req, j, false, &j.wireTrace); err != nil {
				b.Fatal(err)
			}
			// What the reader goroutine does when a tracer is attached.
			tr.Begin(&j.tr, j.wireTrace)
			j.queuedAt = time.Now()
			batch.jobs = append(batch.jobs, j)
		}
		srv.serveBatch(batch, replicas)
		for _, j := range jobs {
			resp := <-j.reply
			if resp.Err != "" {
				b.Fatal(resp.Err)
			}
			var e error
			encStart := time.Now()
			encBuf, e = appendResponse(append(encBuf[:0], 0, 0, 0, 0), resp, nil, false, j.wireTrace.ID)
			if e != nil {
				b.Fatal(e)
			}
			// What the writer goroutine does: encode span, then Finish.
			tr.Span(&j.tr, trace.StageEncode, encStart, time.Since(encStart))
			tr.Finish(&j.tr, false)
			j.reset()
		}
		batch.reset()
	}
	cycle()
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
