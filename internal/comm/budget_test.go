package comm

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ensembler/internal/nn"
	"ensembler/internal/privacy"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// This file pins the comm half of the privacy-budget contract: the wire
// codes and handshake bytes, Pool.Retry terminality for budget refusals (a
// drained budget does not refill on retry, so retrying is pure waste), the
// escalation-noise arithmetic, and the zero-allocation discipline of the
// guarded serving loop. The policy ladder itself is pinned in
// internal/privacy; the end-to-end escalation run lives in
// budget_e2e_test.go.

// refuseOnceBinary runs a stub server that refuses each connection's first
// request with the budget code and serves afterwards, counting attempts.
func refuseOnceBinary(t *testing.T, attempts *atomic.Uint64) string {
	feature := wireTensor(431, 1, 8)
	return stubServer(t, 0, func(i int) *Response {
		attempts.Add(1)
		if i == 0 {
			return &Response{Err: budgetExhaustedMsg, Code: CodeBudgetExhausted}
		}
		return &Response{Features: []*tensor.Tensor{feature}}
	})
}

// TestPoolBudgetExhaustedTerminalBinary pins retry terminality: a budget
// refusal, which travels as the response frame's code field, must surface
// immediately as ErrBudgetExhausted after exactly one attempt, even under a
// generous retry policy — unlike an overload shed, a drained budget does not
// recover on the retry timescale, and hammering the server only burns the
// refusal counters. The contrast case (ErrOverloaded retried transparently)
// is TestPoolRetriesOverloadedServer.
func TestPoolBudgetExhaustedTerminalBinary(t *testing.T) {
	var attempts atomic.Uint64
	addr := refuseOnceBinary(t, &attempts)

	pool, err := NewPool(addr, 1, func(c *Client) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Jitter: 0.5}

	x := wireTensor(433, 1, 4, 8, 8)
	_, _, err = pool.Exchange(context.Background(), x)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("binary budget refusal surfaced as %v, want ErrBudgetExhausted", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("budget refusal also matches ErrOverloaded — retry loops would treat it as transient")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("budget-refused exchange hit the server %d times, want exactly 1", got)
	}
	if _, _, err := pool.Exchange(context.Background(), x); err != nil {
		t.Fatalf("connection unusable after a binary budget refusal: %v", err)
	}
}

// TestWireHelloBytesPinned pins the handshake bytes: magic, version, the
// f32 flag, and the client ID length-prefixed inline. These literals are the
// wire contract — if this test needs editing, the protocol broke.
func TestWireHelloBytesPinned(t *testing.T) {
	if got, want := string(appendHello(nil, false, "")), "\xE5NSB\x05\x00\x00"; got != want {
		t.Errorf("anonymous hello = %q, want %q", got, want)
	}
	if got, want := string(appendHello(nil, true, "ab")), "\xE5NSB\x05\x01\x02ab"; got != want {
		t.Errorf("f32 hello with client ID = %q, want %q", got, want)
	}
	if got, want := helloAck(25), [7]byte{0xE5, 'N', 'S', 'B', 5, 25, 0}; got != want {
		t.Errorf("ack = %v, want %v", got, want)
	}
}

// TestNegotiateClientIDHandshake pins the server half of the hello at the
// negotiate boundary: a declared identity comes back from negotiate, an
// anonymous hello yields "", a hello naming another wire version is refused
// with both versions named (after an ack that names the server's), and a
// hostile ID drops the connection.
func TestNegotiateClientIDHandshake(t *testing.T) {
	srv := NewServer(codecBodies(1))

	type result struct {
		id  string
		err error
	}
	run := func(t *testing.T, hello []byte) (result, []byte) {
		t.Helper()
		server, client := net.Pipe()
		defer server.Close()
		defer client.Close()
		done := make(chan result, 1)
		go func() {
			_, id, err := srv.negotiate(server, bufio.NewReaderSize(server, 1<<16))
			done <- result{id, err}
			server.Close()
		}()
		go client.Write(hello)
		ack, _ := io.ReadAll(client)
		select {
		case r := <-done:
			return r, ack
		case <-time.After(5 * time.Second):
			t.Fatal("negotiate did not return — it is reading bytes the peer never promised")
			return result{}, nil
		}
	}
	acked := func(t *testing.T, ack []byte) {
		t.Helper()
		if want := helloAck(0); !bytes.Equal(ack, want[:]) {
			t.Errorf("ack = %x, want %x", ack, want)
		}
	}

	t.Run("declared identity", func(t *testing.T) {
		r, ack := run(t, appendHello(nil, false, "did:ex:alice"))
		if r.err != nil || r.id != "did:ex:alice" {
			t.Fatalf("negotiate = (%q, %v), want the declared identity", r.id, r.err)
		}
		acked(t, ack)
	})

	t.Run("anonymous", func(t *testing.T) {
		r, ack := run(t, appendHello(nil, true, ""))
		if r.err != nil || r.id != "" {
			t.Fatalf("negotiate = (%q, %v), want anonymous success", r.id, r.err)
		}
		acked(t, ack)
	})

	t.Run("wrong version refused", func(t *testing.T) {
		// An old v4 hello: the server must not try to read its flagged
		// client-ID frame, and must name both versions.
		r, ack := run(t, []byte{0xE5, 'N', 'S', 'B', 4, 0x02, 0, 0})
		if r.err == nil {
			t.Fatal("negotiate accepted a version-4 hello")
		}
		for _, v := range []string{"version 4", "version 5"} {
			if !strings.Contains(r.err.Error(), v) {
				t.Errorf("refusal %q does not name %s", r.err, v)
			}
		}
		acked(t, ack)
	})

	t.Run("hostile ID drops connection", func(t *testing.T) {
		hello := appendHello(nil, false, "x")
		hello[6] = 0xFF // an ID length far beyond the 64-byte ceiling
		r, ack := run(t, hello)
		if r.err == nil {
			t.Fatalf("negotiate accepted a hostile ID as %q", r.id)
		}
		if len(ack) != 0 {
			t.Errorf("server acked a hostile hello: %x", ack)
		}
	})
}

// TestClientRefusesWrongVersionAck pins the client half of the exact-match
// hello: an ack naming another version fails the dial with both versions
// in the error.
func TestClientRefusesWrongVersionAck(t *testing.T) {
	ack := helloAck(0)
	ack[4] = 6
	var sink bytes.Buffer
	_, err := negotiateClient(&sink, bufio.NewReader(bytes.NewReader(ack[:])), false, "")
	if !errors.Is(err, errWireVersion) {
		t.Fatalf("negotiateClient = %v, want a wire version mismatch", err)
	}
	for _, v := range []string{"version 6", "version 5"} {
		if !strings.Contains(err.Error(), v) {
			t.Errorf("refusal %q does not name %s", err, v)
		}
	}
}

// TestAddrBucket pins the legacy-identity derivation: one account per peer
// host, a disjoint namespace from declared IDs, and no panic on degenerate
// addresses.
func TestAddrBucket(t *testing.T) {
	tcp := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4321}
	if got := addrBucket(tcp); got != "addr:127.0.0.1" {
		t.Errorf("addrBucket(%v) = %q, want addr:127.0.0.1", tcp, got)
	}
	// Two connections from one host share an account.
	tcp2 := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	if addrBucket(tcp) != addrBucket(tcp2) {
		t.Error("same-host peers bucketed into different accounts")
	}
	if got := addrBucket(nil); got != "addr:unknown" {
		t.Errorf("addrBucket(nil) = %q", got)
	}
	if got := addrBucket(&net.UnixAddr{Name: "@sock", Net: "unix"}); got != "addr:@sock" {
		t.Errorf("addrBucket(unix) = %q", got)
	}
}

// TestNoiseResponseStatistics pins the escalation-noise arithmetic: additive
// Gaussian perturbation of the declared sigma on every payload value, in
// place, on both precisions — and a strict no-op at sigma 0.
func TestNoiseResponseStatistics(t *testing.T) {
	const n = 1 << 14
	const sigma = 0.1

	j := newJob()
	j.rng = 12345
	j.noiseSigma = sigma
	feat := tensor.New(1, n)
	resp := &Response{Features: []*tensor.Tensor{feat}}
	noiseResponse(j, resp)

	var sum, sumSq float64
	for _, v := range feat.Data {
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 5*sigma/math.Sqrt(n) {
		t.Errorf("noise mean %v too far from 0 for sigma %v over %d draws", mean, sigma, n)
	}
	if math.Abs(std-sigma) > 0.1*sigma {
		t.Errorf("noise std %v, want within 10%% of sigma %v", std, sigma)
	}

	// Sigma 0 leaves the payload untouched (and must not seed the rng).
	j2 := newJob()
	clean := tensor.New(1, 8)
	for i := range clean.Data {
		clean.Data[i] = float64(i)
	}
	noiseResponse(j2, &Response{Features: []*tensor.Tensor{clean}})
	for i, v := range clean.Data {
		if v != float64(i) {
			t.Fatalf("sigma-0 noiseResponse modified value %d", i)
		}
	}
	if j2.rng != 0 {
		t.Error("sigma-0 noiseResponse seeded the noise state")
	}

	// The f32 response path perturbs the f32 payload.
	j3 := newJob()
	j3.noiseSigma = sigma
	j3.f32Resp = true
	f32 := tensor.New32(1, n)
	j3.feats32 = []*tensor.Tensor32{f32}
	noiseResponse(j3, &Response{})
	var nonzero int
	for _, v := range f32.Data {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < n/2 {
		t.Errorf("f32 noise touched only %d/%d values", nonzero, n)
	}
}

// benchGuard builds a guard whose per-row charge is one nano-ε against an
// enormous budget: the hot path runs the full charge arithmetic while the
// account stays healthy for any realistic iteration count.
func benchGuard(tb testing.TB) *privacy.Guard {
	tb.Helper()
	ledger, err := privacy.NewLedger(privacy.LedgerConfig{BudgetEps: 1e6, QueryEps: 1e-9})
	if err != nil {
		tb.Fatal(err)
	}
	guard, err := privacy.NewGuard(ledger, privacy.PolicyConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return guard
}

// TestServeLoopZeroAllocsWithLedger extends the zero-allocation pin to the
// guarded serving loop, in both regimes a live server sees: a healthy
// account (charge verdict, no noise) and a half-drained one (charge verdict
// plus in-place Gaussian noise on every response value). Budget accounting
// is only deployable because it costs nothing here; this test is the gate.
func TestServeLoopZeroAllocsWithLedger(t *testing.T) {
	const nBodies = 3
	newSrv := func(g *privacy.Guard) *Server {
		return NewServer(codecBodies(nBodies), WithWorkers(2), WithBudget(g),
			WithReplicas(func() []*nn.Network { return codecBodies(nBodies) }))
	}
	body, err := appendRequest(nil, &Request{Features: wireTensor(23, 2, 4, 8, 8)}, false, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}

	run := func(t *testing.T, srv *Server, acct *privacy.Account, wantNoise bool) {
		t.Helper()
		j := newJob()
		replicas := newReplicaCache(PrecisionF64)
		encBuf := make([]byte, 0, 1<<16)
		cycle := func() {
			if err := parseRequestInto(body, &j.req, j, false, nil); err != nil {
				t.Fatal(err)
			}
			j.account = acct
			resp := srv.serve(j, replicas)
			if resp.Err != "" {
				t.Fatal(resp.Err)
			}
			if wantNoise && j.noiseSigma == 0 {
				t.Fatal("drained account served without an escalation-noise verdict")
			}
			var e error
			encBuf, e = appendResponse(append(encBuf[:0], 0, 0, 0, 0), resp, nil, false, 0)
			if e != nil {
				t.Fatal(e)
			}
			j.reset()
		}
		cycle() // warm-up: clone replicas, size arenas and buffers
		cycle()
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Errorf("guarded serve loop allocates %v times per request, want 0", allocs)
		}
	}

	t.Run("healthy account", func(t *testing.T) {
		g := benchGuard(t)
		run(t, newSrv(g), g.AccountFor("healthy"), false)
	})

	t.Run("noised account", func(t *testing.T) {
		// Budget sized so the warm-up drains past NoiseAt (0.5) while the
		// whole test stays far from refusal: 2 rows/request, ~0.1ε/row.
		ledger, err := privacy.NewLedger(privacy.LedgerConfig{BudgetEps: 100, QueryEps: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		g, err := privacy.NewGuard(ledger, privacy.PolicyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		acct := g.AccountFor("drained")
		// Drain to 60% spent with direct charges before serving.
		for g.Charge(acct, 100); acct.SpentEps() < 60; {
			g.Charge(acct, 100)
		}
		run(t, newSrv(g), acct, true)
	})
}

// BenchmarkServeRequestLoopLedger is BenchmarkServeRequestLoop with the
// privacy-budget guard attached and every request charged to a live
// account — the CI allocation gate for the guarded serving loop
// (`0 allocs/op` is asserted by the workflow grep, and independently by
// TestServeLoopZeroAllocsWithLedger).
func BenchmarkServeRequestLoopLedger(b *testing.B) {
	const nBodies = 4
	guard := benchGuard(b)
	acct := guard.AccountFor("bench-client")
	srv := NewServer(codecBodies(nBodies), WithWorkers(2), WithBudget(guard),
		WithReplicas(func() []*nn.Network { return codecBodies(nBodies) }))
	body, err := appendRequest(nil, &Request{Features: wireTensor(24, 4, 4, 8, 8)}, false, trace.Context{})
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
		j.account = acct
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
		j.account = acct
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

// The stringer/parser helpers the serve banner and registry manifests lean
// on: round-trip every precision form and pin the wire-format names.
func TestPrecisionAndWireStrings(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Precision
	}{{"", PrecisionF64}, {"f64", PrecisionF64}, {"f32", PrecisionF32}} {
		got, err := ParsePrecision(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePrecision(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Error("ParsePrecision(f16) must be rejected")
	}
	if PrecisionF64.String() != "f64" || PrecisionF32.String() != "f32" {
		t.Error("Precision.String round-trip broken")
	}
	for f, want := range map[WireFormat]string{
		WireBinary: "binary", WireBinaryF32: "binary+f32", WireFormat(99): "WireFormat(99)",
	} {
		if f.String() != want {
			t.Errorf("WireFormat(%d).String() = %q, want %q", int(f), f.String(), want)
		}
	}
}
