package comm

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"ensembler/internal/faultpoint"
	"ensembler/internal/nn"
	"ensembler/internal/trace"
)

// testMidFrameFaultReconnects drives a pooled client through a server whose
// response write is torn mid-frame by the given fault kind, and pins the
// recovery contract: the faulted exchange fails (a torn frame is a transport
// error, not a retryable shed), the pool discards the desynced connection,
// and the next exchange succeeds bit-exactly over a fresh dial — never by
// reusing the poisoned stream.
func testMidFrameFaultReconnects(t *testing.T, kind faultpoint.Kind) {
	defer faultpoint.DisableAll()
	addr := startServer(t, codecBodies(2))
	pool, err := NewPool(addr, 1, func(c *Client) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	x := wireTensor(600, 1, 4, 8, 8)
	want, _, err := pool.Exchange(context.Background(), x)
	if err != nil {
		t.Fatalf("baseline exchange: %v", err)
	}
	if len(want.Features) != 2 {
		t.Fatalf("baseline returned %d features, want 2", len(want.Features))
	}

	faultpoint.Enable("comm/frame-write", faultpoint.Policy{Kind: kind, Count: 1, Frac: 0.5})
	if _, _, err := pool.Exchange(context.Background(), x); err == nil {
		t.Fatal("mid-frame write fault did not surface as an exchange error")
	} else if errors.Is(err, ErrOverloaded) {
		t.Fatalf("torn frame misclassified as a benign shed: %v", err)
	}

	// The pool must have discarded the broken connection; this exchange
	// rides a fresh dial and must be bit-exact with the baseline.
	got, _, err := pool.Exchange(context.Background(), x)
	if err != nil {
		t.Fatalf("exchange after reconnect: %v", err)
	}
	for i := range want.Features {
		if !got.Features[i].AllClose(want.Features[i], 0) {
			t.Fatalf("feature %d differs after reconnect — desynced stream reuse", i)
		}
	}
}

func TestPoolReconnectsAfterMidFramePartialWriteBinary(t *testing.T) {
	testMidFrameFaultReconnects(t, faultpoint.PartialWrite)
}

func TestPoolReconnectsAfterMidFrameConnResetBinary(t *testing.T) {
	testMidFrameFaultReconnects(t, faultpoint.ConnReset)
}

// TestDispatchIntakeFaultShedsHonestly: a forced admission-control fault
// surfaces as the standard overload verdict — the client sees a retryable
// 429, not a broken stream. The dispatcher intake only exists on a batching
// server, so this starts one explicitly.
func TestDispatchIntakeFaultShedsHonestly(t *testing.T) {
	defer faultpoint.DisableAll()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go NewServer(codecBodies(2), WithBatchWindow(time.Millisecond)).Serve(context.Background(), ln)
	addr := ln.Addr().String()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	x := wireTensor(601, 1, 4, 8, 8)

	faultpoint.Enable("comm/dispatch-intake", faultpoint.Policy{Kind: faultpoint.Error, Count: 1})
	if _, _, err := client.Exchange(context.Background(), x); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("dispatch-intake fault surfaced as %v, want ErrOverloaded", err)
	}
	// The shed was honest: the same connection serves the next request.
	if _, _, err := client.Exchange(context.Background(), x); err != nil {
		t.Fatalf("connection unusable after an injected shed: %v", err)
	}
}

// TestDialFaultSurfaces: the client-side dial site fails the connection
// before any socket traffic, with the address in the error.
func TestDialFaultSurfaces(t *testing.T) {
	defer faultpoint.DisableAll()
	addr := startServer(t, codecBodies(2))
	faultpoint.Enable("comm/dial", faultpoint.Policy{Kind: faultpoint.Error, Count: 1})
	if _, err := Dial(addr); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("dial fault surfaced as %v, want injected", err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial after fault exhausted: %v", err)
	}
	c.Close()
}

// BenchmarkServeRequestLoopFaultpointsDisabled is BenchmarkServeRequestLoop
// with the faultpoint layer explicitly disarmed: CI gates this at 0
// allocs/op to pin that compiled-in fault sites cost the serving loop
// nothing — one atomic load per site, no allocations, no branches taken.
func BenchmarkServeRequestLoopFaultpointsDisabled(b *testing.B) {
	faultpoint.DisableAll()
	const nBodies = 4
	srv := NewServer(codecBodies(nBodies), WithWorkers(2),
		WithReplicas(func() []*nn.Network { return codecBodies(nBodies) }))
	body, err := appendRequest(nil, &Request{Features: wireTensor(22, 4, 4, 8, 8)}, false, trace.Context{})
	if err != nil {
		b.Fatal(err)
	}
	j := newJob()
	replicas := newReplicaCache(PrecisionF64)
	encBuf := make([]byte, 0, 1<<20)
	for i := 0; i < 2; i++ {
		if err := parseRequestInto(body, &j.req, j, false, nil); err != nil {
			b.Fatal(err)
		}
		if resp := srv.serve(j, replicas); resp.Err != "" {
			b.Fatal(resp.Err)
		}
		j.reset()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := parseRequestInto(body, &j.req, j, false, nil); err != nil {
			b.Fatal(err)
		}
		resp := srv.serve(j, replicas)
		if resp.Err != "" {
			b.Fatal(resp.Err)
		}
		var e error
		encBuf, e = appendResponse(append(encBuf[:0], 0, 0, 0, 0), resp, nil, false, 0)
		if e != nil {
			b.Fatal(e)
		}
		j.reset()
	}
}
