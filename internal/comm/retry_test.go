package comm

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ensembler/internal/tensor"
)

// TestRetryPolicyDelaySchedule pins the backoff schedule as a pure function:
// deterministic doubling from BaseDelay, the MaxDelay cap, and the jitter
// envelope — no sleeping, no seeding.
func TestRetryPolicyDelaySchedule(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 250 * time.Millisecond, Jitter: 0.5}

	// u = 0 is the jitterless upper envelope: pure doubling.
	for i, want := range []time.Duration{
		2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond,
		16 * time.Millisecond, 32 * time.Millisecond,
	} {
		if got := p.Delay(i+1, 0); got != want {
			t.Errorf("Delay(%d, 0) = %v, want %v", i+1, got, want)
		}
	}
	// The exponential caps at MaxDelay instead of growing without bound.
	if got := p.Delay(30, 0); got != 250*time.Millisecond {
		t.Errorf("Delay(30, 0) = %v, want the %v cap", got, 250*time.Millisecond)
	}
	// Jitter scales into [1-Jitter, 1]: u→1 gives the lower envelope.
	if got := p.Delay(1, 0.9999); got < 1*time.Millisecond || got >= 2*time.Millisecond {
		t.Errorf("Delay(1, ~1) = %v, want within [%v, %v)", got, 1*time.Millisecond, 2*time.Millisecond)
	}
	for u := 0.0; u < 1; u += 0.13 {
		d := p.Delay(2, u)
		if d < 2*time.Millisecond || d > 4*time.Millisecond {
			t.Errorf("Delay(2, %v) = %v outside the jitter envelope [2ms, 4ms]", u, d)
		}
	}

	// Degenerate policies do not panic and do not wait.
	if got := (RetryPolicy{}).Delay(1, 0.5); got != 0 {
		t.Errorf("zero policy Delay = %v, want 0", got)
	}
	if got := p.Delay(0, 0); got != 0 {
		t.Errorf("Delay(0) = %v, want 0", got)
	}
	// Jitter above 1 clamps instead of going negative.
	wild := RetryPolicy{BaseDelay: 8 * time.Millisecond, Jitter: 5}
	if got := wild.Delay(1, 0.9999); got < 0 || got > 8*time.Millisecond {
		t.Errorf("over-jittered Delay = %v, want within [0, 8ms]", got)
	}
}

// TestRetryDelayFloorAtZeroWindow pins the greedy-mode (batch window 0)
// backoff floor. retryOverload floors the policy delay by the server's
// advertised window; a greedy server advertises 0, so the jitter draw is the
// only thing between a shed and an immediate re-send. A full-jitter draw
// (u→1) must therefore never collapse the delay to zero — the floor is a
// quarter of the pre-jitter backoff — or the client hot-spins against the
// very server that just shed it for overload.
func TestRetryDelayFloorAtZeroWindow(t *testing.T) {
	for _, p := range []RetryPolicy{
		DefaultRetryPolicy(),
		{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, Jitter: 1}, // full jitter, no cap
	} {
		for failures := 1; failures <= p.MaxAttempts; failures++ {
			preJitter := p.Delay(failures, 0)
			floor := preJitter / 4
			for u := 0.0; u < 1; u += 0.0625 {
				if got := p.Delay(failures, u); got < floor {
					t.Fatalf("Delay(%d, %v) = %v under policy %+v: below the %v floor — window-0 servers would be hot-spun",
						failures, u, got, p, floor)
				}
			}
			// The adversarial draw: u just under 1 is where full jitter used
			// to collapse to ~0.
			if got := p.Delay(failures, 0.999999); got < floor {
				t.Fatalf("Delay(%d, ~1) = %v, want ≥ %v", failures, got, floor)
			}
		}
	}
}

// TestPoolRetryAtZeroWindow drives the same contract end to end: a greedy
// binary server (hello window 0) that sheds the first request must cost the
// pooled call one backed-off retry — the zero window must not disable the
// policy delay or the retry itself.
func TestPoolRetryAtZeroWindow(t *testing.T) {
	addr := shedThenServe(t, 0, 1, nil)
	pool, err := NewPool(addr, 1, func(c *Client) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, Jitter: 1}

	start := time.Now()
	ex, _, err := pool.Exchange(context.Background(), wireTensor(412, 1, 4, 8, 8))
	if err != nil {
		t.Fatalf("exchange against a greedy shedding server: %v", err)
	}
	if len(ex.Features) != 1 {
		t.Fatalf("retried exchange returned %d features, want 1", len(ex.Features))
	}
	// The jitter floor guarantees at least BaseDelay/4 of backoff even at
	// window 0; anything faster means the delay collapsed.
	if elapsed := time.Since(start); elapsed < time.Millisecond/4 {
		t.Errorf("shed retried after only %v — the window-0 backoff floor did not hold", elapsed)
	}
}

// stubServer runs a hand-rolled wire server — the deterministic harness for
// the client's retry and terminality logic. It acks every hello with the
// given window advice and answers each connection's i-th request (from 0)
// with respond(i); respond runs concurrently across connections.
func stubServer(t *testing.T, windowMs uint16, respond func(i int) *Response) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, _, err := readHello(br); err != nil {
					return
				}
				ack := helloAck(windowMs)
				if _, err := conn.Write(ack[:]); err != nil {
					return
				}
				var decBuf []byte
				for i := 0; ; i++ {
					var body []byte
					var err error
					if decBuf, body, err = readFrame(br, decBuf); err != nil {
						return
					}
					var req Request
					if err := parseRequestInto(body, &req, nil, false, nil); err != nil {
						return
					}
					buf, err := appendResponse([]byte{0, 0, 0, 0}, respond(i), nil, false, 0)
					if err != nil {
						return
					}
					if err := writeFrame(conn, buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// shedThenServe runs a stub server advertising the given window that sheds
// each connection's first shedFirst requests with the overload verdict, then
// serves a fixed feature response, counting the served ones (served may be
// nil).
func shedThenServe(t *testing.T, windowMs uint16, shedFirst int, served *atomic.Uint64) string {
	feature := wireTensor(400, 1, 8)
	return stubServer(t, windowMs, func(i int) *Response {
		if i < shedFirst {
			return &Response{Err: overloadedMsg, Code: CodeOverloaded}
		}
		if served != nil {
			served.Add(1)
		}
		return &Response{Features: []*tensor.Tensor{feature}}
	})
}

// TestPoolRetriesOverloadedServer drives the retry loop end to end: a server shedding each connection's first two requests
// must cost a pooled Exchange two transparent retries, not an error — and
// the same shed must surface as ErrOverloaded (with the connection still
// usable) when retries are disabled.
func TestPoolRetriesOverloadedServer(t *testing.T) {
	var served atomic.Uint64
	addr := shedThenServe(t, 0, 2, &served)

	pool, err := NewPool(addr, 1, func(c *Client) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Jitter: 0.5}

	x := wireTensor(401, 1, 4, 8, 8)
	ex, _, err := pool.Exchange(context.Background(), x)
	if err != nil {
		t.Fatalf("pooled exchange failed despite retry budget: %v", err)
	}
	if len(ex.Features) != 1 || served.Load() != 1 {
		t.Fatalf("retry loop served %d requests, want exactly 1", served.Load())
	}

	// With retries disabled the shed is the caller's problem — and it must
	// be recognizably ErrOverloaded, benign for the connection.
	var servedNone atomic.Uint64
	addr2 := shedThenServe(t, 0, 1, &servedNone)
	pool2, err := NewPool(addr2, 1, func(c *Client) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	pool2.Retry = RetryPolicy{}
	_, _, err = pool2.Exchange(context.Background(), x)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("retry-disabled shed surfaced as %v, want ErrOverloaded", err)
	}
	// The shed left the stream synchronized: the same pooled connection
	// serves the next request.
	if _, _, err := pool2.Exchange(context.Background(), x); err != nil {
		t.Fatalf("connection unusable after a benign shed: %v", err)
	}
}

// TestPoolRetryHonorsContext pins the backoff's cancellation path: a server
// that always sheds must not hold Exchange for the full retry schedule when
// the context expires mid-backoff.
func TestPoolRetryHonorsContext(t *testing.T) {
	var served atomic.Uint64
	addr := shedThenServe(t, 0, 1<<30, &served)
	pool, err := NewPool(addr, 1, func(c *Client) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.Retry = RetryPolicy{MaxAttempts: 1000, BaseDelay: time.Second, MaxDelay: time.Second}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = pool.Exchange(ctx, wireTensor(402, 1, 4, 8, 8))
	if err == nil {
		t.Fatal("always-shedding server produced a success")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("mid-backoff cancellation surfaced as %v, want the context verdict", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled retry loop held the call for %v", elapsed)
	}
}

// TestBinaryClientSurfacesOverload pins the client's half of the shed
// contract: the code field decodes into ErrOverloaded, the connection
// survives, and the hello ack's window advice lands in ServerBatchWindow.
func TestBinaryClientSurfacesOverload(t *testing.T) {
	addr := shedThenServe(t, 25, 1, nil)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if w := client.ServerBatchWindow(); w != 25*time.Millisecond {
		t.Errorf("ServerBatchWindow = %v, want 25ms from the hello ack", w)
	}
	x := wireTensor(411, 1, 4, 8, 8)
	_, _, err = client.Exchange(context.Background(), x)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("binary shed surfaced as %v, want ErrOverloaded", err)
	}
	if _, _, err := client.Exchange(context.Background(), x); err != nil {
		t.Fatalf("connection unusable after a benign binary shed: %v", err)
	}
}

// TestHelloWindowAdviceClamped pins the defense against a hostile window
// advice: a server advertising an absurd batch window must not be able to
// stretch client backoff beyond the server-side window ceiling.
func TestHelloWindowAdviceClamped(t *testing.T) {
	addr := shedThenServe(t, 65535, 1, nil) // ~65.5s claimed
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if w := client.ServerBatchWindow(); w != maxBatchWindow {
		t.Errorf("ServerBatchWindow = %v, want the hostile advice clamped to %v", w, maxBatchWindow)
	}
}
