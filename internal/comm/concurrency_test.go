package comm_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/nn"
	"ensembler/internal/tensor"
)

// These tests exercise the concurrent serving path through the exported API
// only, over the commtest harness: untrained seeded networks that rebuild
// bit-identically, which is what lets every client check its results
// against a locally computed reference.

var tiny = commtest.TinyArch()

// startConcurrentServer runs a replicated worker-pool server and returns its
// address plus the channel Serve's result lands on.
func startConcurrentServer(t *testing.T, ctx context.Context, n, workers int, opts ...comm.ServerOption) (string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	opts = append([]comm.ServerOption{
		comm.WithWorkers(workers),
		comm.WithReplicas(func() []*nn.Network { return commtest.Bodies(tiny, n) }),
	}, opts...)
	srv := comm.NewServer(commtest.Bodies(tiny, n), opts...)
	if srv.Workers() != workers {
		t.Fatalf("workers = %d, want %d", srv.Workers(), workers)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ctx, ln) }()
	return ln.Addr().String(), errCh
}

// dialWired dials the server and wires the raw-protocol client.
func dialWired(t *testing.T, addr string, n int) *comm.Client {
	t.Helper()
	client, err := comm.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	commtest.Wire(client, tiny, n)
	return client
}

// TestConcurrentMixedClients hammers a replicated worker-pool server with
// simultaneous clients issuing a mix of single and batched requests, every
// one of which must match the locally computed reference bit-for-bit.
func TestConcurrentMixedClients(t *testing.T) {
	const (
		nBodies = 3
		clients = 10
		rounds  = 4
	)
	addr, _ := startConcurrentServer(t, context.Background(), nBodies, 4)

	x := commtest.Input(tiny, 50, 2)
	want := commtest.Reference(tiny, nBodies, x)
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client, err := comm.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			commtest.Wire(client, tiny, nBodies)
			for round := 0; round < rounds; round++ {
				if id%2 == 0 {
					got, _, err := client.Infer(ctx, x)
					if err != nil {
						errs <- fmt.Errorf("client %d round %d: %w", id, round, err)
						return
					}
					if !got.AllClose(want, 1e-12) {
						errs <- fmt.Errorf("client %d round %d: single result diverged", id, round)
						return
					}
				} else {
					got, _, err := client.InferBatch(ctx, []*tensor.Tensor{x, x, x})
					if err != nil {
						errs <- fmt.Errorf("client %d round %d: %w", id, round, err)
						return
					}
					for j, g := range got {
						if !g.AllClose(want, 1e-12) {
							errs <- fmt.Errorf("client %d round %d: batched result %d diverged", id, round, j)
							return
						}
					}
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolConcurrentInference drives a connection pool from more goroutines
// than it has connections; every result must match the reference.
func TestPoolConcurrentInference(t *testing.T) {
	const nBodies = 3
	addr, _ := startConcurrentServer(t, context.Background(), nBodies, 2)

	pool, err := comm.NewPool(addr, 4, func(c *comm.Client) error {
		commtest.Wire(c, tiny, nBodies)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	x := commtest.Input(tiny, 51, 1)
	want := commtest.Reference(tiny, nBodies, x)
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var got *tensor.Tensor
			var err error
			if i%3 == 0 {
				var batch []*tensor.Tensor
				batch, _, err = pool.InferBatch(ctx, []*tensor.Tensor{x, x})
				if err == nil {
					got = batch[1]
				}
			} else {
				got, _, err = pool.Infer(ctx, x)
			}
			if err != nil {
				errs <- err
				return
			}
			if !got.AllClose(want, 1e-12) {
				errs <- fmt.Errorf("goroutine %d: pooled result diverged", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShutdownMidFlight cancels the server context while clients are
// hammering it: Serve must return promptly and cleanly, in-flight requests
// must either complete or fail with an error (never hang), and the listener
// must stop accepting.
func TestShutdownMidFlight(t *testing.T) {
	const nBodies = 3
	ctx, cancel := context.WithCancel(context.Background())
	addr, errCh := startConcurrentServer(t, ctx, nBodies, 2)

	x := commtest.Input(tiny, 52, 2)
	started := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := comm.Dial(addr)
			if err != nil {
				once.Do(func() { close(started) })
				return
			}
			defer client.Close()
			commtest.Wire(client, tiny, nBodies)
			for {
				if _, _, err := client.Infer(context.Background(), x); err != nil {
					return // shutdown reached this connection
				}
				once.Do(func() { close(started) })
			}
		}()
	}

	<-started // at least one request fully served before pulling the plug
	cancel()

	select {
	case err := <-errCh:
		if err != nil {
			t.Errorf("graceful shutdown must return nil, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return within 5s of cancellation")
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("clients still blocked 5s after shutdown")
	}

	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		// Accepting stopped, so either the dial fails outright or the
		// connection is immediately dead; a request must not succeed.
		client, err := comm.Dial(addr)
		if err == nil {
			defer client.Close()
			commtest.Wire(client, tiny, nBodies)
			cctx, ccancel := context.WithTimeout(context.Background(), time.Second)
			defer ccancel()
			if _, _, err := client.Infer(cctx, x); err == nil {
				t.Error("server answered a request after shutdown")
			}
		}
	}
}

// TestShutdownWithNonDrainingClient connects a client that floods requests
// but never reads a single response: its connection's send side eventually
// backs up, and shutdown must still complete via the drain-timeout
// force-close rather than hanging on the blocked writer.
func TestShutdownWithNonDrainingClient(t *testing.T) {
	const nBodies = 3
	ctx, cancel := context.WithCancel(context.Background())
	addr, errCh := startConcurrentServer(t, ctx, nBodies, 2, comm.WithDrainTimeout(300*time.Millisecond))

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Flood from a goroutine: once the server stops reading, our own writes
	// block too, so the flood must be bounded by the connection failing.
	flooding := make(chan struct{})
	go func() {
		defer close(flooding)
		frame, err := comm.RequestFrame(&comm.Request{Features: commtest.Input(tiny, 60, 8)})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := conn.Write(comm.Hello()); err != nil {
			return
		}
		for i := 0; i < 10000; i++ {
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()

	time.Sleep(100 * time.Millisecond) // let requests pile up unread
	cancel()

	select {
	case err := <-errCh:
		if err != nil {
			t.Errorf("shutdown with a non-draining client must return nil, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve hung on a client that never reads responses")
	}
	conn.Close()
	select {
	case <-flooding:
	case <-time.After(5 * time.Second):
		t.Fatal("flooding client still blocked after its connection was closed")
	}
}

// TestInferHonorsContext checks per-request deadlines, pre-cancelled
// contexts, and that a context abort mid-flight breaks the connection
// rather than leaving a desynchronized stream behind.
func TestInferHonorsContext(t *testing.T) {
	const nBodies = 2
	addr, _ := startConcurrentServer(t, context.Background(), nBodies, 1)

	client := dialWired(t, addr, nBodies)
	x := commtest.Input(tiny, 53, 1)

	// A pre-cancelled context fails before any I/O and must NOT poison the
	// connection.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := client.Infer(cancelled, x); err == nil {
		t.Error("pre-cancelled context must fail the request")
	}
	// A generous deadline must not interfere with a healthy request.
	ctx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if _, _, err := client.Infer(ctx, x); err != nil {
		t.Errorf("deadline-bearing request failed: %v", err)
	}
}

// TestAbortedRequestBreaksClient pins the stale-response defense: a request
// aborted mid-flight leaves the stream in an unknown state, so the client
// must refuse further use instead of silently pairing the next request with
// the previous response.
func TestAbortedRequestBreaksClient(t *testing.T) {
	// A listener that accepts and reads but never responds: the request
	// will always time out mid-decode.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				// Complete the wire negotiation, then go mute: requests are
				// read and never answered.
				if _, err := io.ReadFull(conn, make([]byte, len(comm.Hello()))); err != nil {
					return
				}
				if _, err := conn.Write(comm.HelloAck(0)); err != nil {
					return
				}
				buf := make([]byte, 1<<16)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	client, err := comm.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	commtest.Wire(client, tiny, 1)
	x := commtest.Input(tiny, 58, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, _, err := client.Infer(ctx, x); err == nil {
		t.Fatal("request against a mute server must time out")
	}
	if _, _, err := client.Infer(context.Background(), x); err == nil {
		t.Error("client must be broken after an aborted request")
	}
}

// TestMuteDispatcherServerBreaksClient is the continuous-batching variant
// of the mute-server handshake test: a hostile server that completes the
// hello — advertising an absurd 65.5-second batch window — and
// then never dispatches anything. The window advice must not buy the server
// extra patience: the client's deadline still fires, the connection still
// breaks, and the advertised window is clamped to the honest ceiling rather
// than swallowed whole.
func TestMuteDispatcherServerBreaksClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := io.ReadFull(conn, make([]byte, len(comm.Hello()))); err != nil {
					return
				}
				// An ack claiming windowMs = 0xFFFF: "just wait, the batch is
				// coming" — then mute.
				if _, err := conn.Write(comm.HelloAck(0xFFFF)); err != nil {
					return
				}
				buf := make([]byte, 1<<16)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	client, err := comm.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if w := client.ServerBatchWindow(); w > time.Second {
		t.Errorf("client accepted a %v batch window from a hostile ack", w)
	}
	commtest.Wire(client, tiny, 1)
	x := commtest.Input(tiny, 59, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, _, err := client.Infer(ctx, x); err == nil {
		t.Fatal("request against a mute dispatcher must time out")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("client waited %v on a mute dispatcher despite a 100ms deadline", waited)
	}
	if _, _, err := client.Infer(context.Background(), x); err == nil {
		t.Error("client must be broken after a request died waiting on a mute dispatcher")
	}
}

// TestMalformedTensorsDoNotKillServer sends hostile payloads over the wire.
// A tensor the frame cannot honestly describe (a zero dimension, fewer
// values than its shape claims) fails the frame parse and drops that
// connection; a well-formed frame with a shape the bodies reject gets an
// error response on a connection that stays usable. Either way the server
// lives on and a healthy client is still served afterwards.
func TestMalformedTensorsDoNotKillServer(t *testing.T) {
	const nBodies = 2
	addr, _ := startConcurrentServer(t, context.Background(), nBodies, 1)
	ctx := context.Background()

	frameLies := []*tensor.Tensor{
		{Shape: []int{0, 3, 8, 8}},                           // zero dimension
		{Shape: []int{1, 4, 8, 8}, Data: make([]float64, 5)}, // shape/data lie
	}
	for i, f := range frameLies {
		client := dialWired(t, addr, nBodies)
		if _, _, err := client.Exchange(ctx, f); err == nil {
			t.Errorf("frame lie %d accepted", i)
		}
		client.Close()
	}
	client := dialWired(t, addr, nBodies)
	defer client.Close()
	if _, _, err := client.InferBatch(ctx, []*tensor.Tensor{{Shape: []int{0, 4, 8, 8}}}); err == nil {
		t.Error("hostile batched tensor accepted")
	}

	// Wrong channels: a well-formed frame that panics inside the body.
	client = dialWired(t, addr, nBodies)
	defer client.Close()
	_, _, err := client.Exchange(ctx, &tensor.Tensor{Shape: []int{1, 7, 8, 8}, Data: make([]float64, 7*64)})
	if err == nil || !strings.Contains(err.Error(), "server error") {
		t.Fatalf("wrong-channel tensor: got %v, want a server error response", err)
	}
	if _, _, err := client.Infer(ctx, commtest.Input(tiny, 61, 1)); err != nil {
		t.Fatalf("connection unusable after an error response: %v", err)
	}
}

// TestPoolRecoversFromBrokenConnections pins the waiter-wakeup path: when
// every connection breaks while other callers are queued at capacity, the
// queued callers must wake up and redial instead of hanging forever.
func TestPoolRecoversFromBrokenConnections(t *testing.T) {
	// A server that accepts and immediately closes: every request fails
	// fast with a transport error, breaking its connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	pool, err := comm.NewPool(ln.Addr().String(), 1, func(c *comm.Client) error {
		commtest.Wire(c, tiny, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	x := commtest.Input(tiny, 61, 1)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every request must fail with an error — never hang, even for
			// the goroutines that queued while the pool was at capacity.
			if _, _, err := pool.Infer(context.Background(), x); err == nil {
				t.Error("request against a slamming server must fail")
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pool waiters hung after all connections broke")
	}
}

// TestPoolKeepsConnectionAfterBenignError checks that server-side
// rejections (which leave the wire stream synchronized) do not cost the pool
// its connection.
func TestPoolKeepsConnectionAfterBenignError(t *testing.T) {
	const nBodies = 2
	addr, _ := startConcurrentServer(t, context.Background(), nBodies, 1, comm.WithMaxBatch(1))

	dials := 0
	pool, err := comm.NewPool(addr, 1, func(c *comm.Client) error {
		dials++
		commtest.Wire(c, tiny, nBodies)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx := context.Background()
	x := commtest.Input(tiny, 62, 1)
	if _, _, err := pool.InferBatch(ctx, []*tensor.Tensor{x, x}); err == nil {
		t.Fatal("batch above the server cap must be rejected")
	}
	if _, _, err := pool.Infer(ctx, x); err != nil {
		t.Fatalf("healthy request after a benign rejection failed: %v", err)
	}
	if dials != 1 {
		t.Errorf("pool redialed after a benign error: %d dials, want 1", dials)
	}
}

// TestClientRejectsHostileResponses plays a malicious server: responses
// whose tensors lie about their shape or mismatch the selector's expected
// body count must produce errors, not client panics.
func TestClientRejectsHostileResponses(t *testing.T) {
	responses := []comm.Response{
		{Features: []*tensor.Tensor{{Shape: []int{0, 16}}}},
		{Features: []*tensor.Tensor{{Shape: []int{1, 16}, Data: make([]float64, 3)}}},
		// Wrong body count for the concat-all selector's tail (wired for 1).
		{Features: []*tensor.Tensor{
			{Shape: []int{1, 16}, Data: make([]float64, 16)},
			{Shape: []int{1, 16}, Data: make([]float64, 16)},
		}},
	}
	x := commtest.Input(tiny, 63, 1)
	for i := range responses {
		addr := comm.StubServer(t, func(int) *comm.Response { return &responses[i] })
		client, err := comm.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		commtest.Wire(client, tiny, 1)
		if _, _, err := client.Infer(context.Background(), x); err == nil {
			t.Errorf("hostile response %d accepted", i)
		}
		client.Close()
	}
}

// TestBatchedRequestValidation covers the server-side batch guardrails.
func TestBatchedRequestValidation(t *testing.T) {
	const nBodies = 2
	addr, _ := startConcurrentServer(t, context.Background(), nBodies, 1, comm.WithMaxBatch(2))

	client := dialWired(t, addr, nBodies)
	ctx := context.Background()
	x := commtest.Input(tiny, 54, 1)

	if _, _, err := client.InferBatch(ctx, nil); err == nil {
		t.Error("empty batch must be rejected client-side")
	}
	if _, _, err := client.InferBatch(ctx, []*tensor.Tensor{x, x, x}); err == nil {
		t.Error("batch above the server cap must be rejected")
	}
	// The connection must survive a rejected request.
	if _, _, err := client.InferBatch(ctx, []*tensor.Tensor{x, x}); err != nil {
		t.Errorf("in-cap batch after rejection failed: %v", err)
	}
	// Mismatched trailing shapes within one batch are a protocol error.
	other := commtest.Input(commtest.TinyArch(), 55, 1)
	other.Shape[2] /= 2
	other.Data = other.Data[:other.Shape[0]*other.Shape[1]*other.Shape[2]*other.Shape[3]]
	if _, _, err := client.InferBatch(ctx, []*tensor.Tensor{x, other}); err == nil {
		t.Error("shape-mismatched batch must be rejected")
	}
}

// TestDialContextCancelAbortsHello pins the negotiation's cancellation
// path: a cancellable (deadline-less) context must abort a hello blocked on
// a server that accepts the connection but never acks, promptly rather than
// after the 10-second default handshake timeout.
func TestDialContextCancelAbortsHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Hold the connection open without ever answering the hello.
			defer conn.Close()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = comm.DialContext(ctx, ln.Addr().String())
	if err == nil {
		t.Fatal("dial against a mute negotiator must fail on cancellation")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("cancelled dial took %v, want prompt abort", d)
	}
}
