package comm

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"testing"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

func wireTensor(seed int64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	rng.New(seed).FillNormal(t.Data, 0, 1)
	return t
}

// codecBodies deterministically builds n tiny server bodies.
func codecBodies(n int) []*nn.Network {
	out := make([]*nn.Network, n)
	for i := range out {
		out[i] = tinyArch().NewBody(fmt.Sprintf("b%d", i), rng.New(int64(i+1)))
	}
	return out
}

// startCodecServer boots a replicated multi-worker server on loopback.
func startCodecServer(t *testing.T, n int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(codecBodies(n), WithWorkers(2),
		WithReplicas(func() []*nn.Network { return codecBodies(n) }))
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		ln.Close()
		<-served
	})
	return ln.Addr().String()
}

// TestBinaryRequestRoundTrip pins encode→decode identity for both request
// forms, on both the heap and arena decode paths.
func TestBinaryRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Model: "m", Version: 3, Features: wireTensor(1, 2, 4, 8, 8)},
		{Features: wireTensor(2, 1, 3, 4, 4)},
		{Model: "batch", Inputs: []*tensor.Tensor{wireTensor(3, 2, 3, 4, 4), wireTensor(4, 1, 3, 4, 4)}},
	}
	for i, req := range reqs {
		body, err := appendRequest(nil, req, false, trace.Context{})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		var heap Request
		if err := parseRequestInto(body, &heap, nil, false, nil); err != nil {
			t.Fatalf("request %d heap decode: %v", i, err)
		}
		j := newJob()
		if err := parseRequestInto(body, &j.req, j, false, nil); err != nil {
			t.Fatalf("request %d arena decode: %v", i, err)
		}
		for _, got := range []*Request{&heap, &j.req} {
			if got.Model != req.Model || got.Version != req.Version {
				t.Errorf("request %d header: got (%q,%d), want (%q,%d)", i, got.Model, got.Version, req.Model, req.Version)
			}
			if req.Features != nil && !got.Features.AllClose(req.Features, 0) {
				t.Errorf("request %d features diverge", i)
			}
			if len(got.Inputs) != len(req.Inputs) {
				t.Fatalf("request %d inputs: got %d, want %d", i, len(got.Inputs), len(req.Inputs))
			}
			for k := range req.Inputs {
				if !got.Inputs[k].AllClose(req.Inputs[k], 0) {
					t.Errorf("request %d input %d diverges", i, k)
				}
			}
		}
	}
}

// TestBinaryResponseRoundTrip pins encode→decode identity for both response
// forms, error strings and headers included.
func TestBinaryResponseRoundTrip(t *testing.T) {
	resps := []*Response{
		{Model: "m", Version: 7, Features: []*tensor.Tensor{wireTensor(5, 2, 16), wireTensor(6, 2, 16)}},
		{Err: "comm: something broke"},
		{Outputs: [][]*tensor.Tensor{
			{wireTensor(7, 1, 16), wireTensor(8, 1, 16)},
			{wireTensor(9, 1, 16), wireTensor(10, 1, 16)},
		}},
	}
	for i, resp := range resps {
		body, err := appendResponse(nil, resp, nil, false, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		var got Response
		if err := parseResponseInto(body, &got, nil); err != nil {
			t.Fatalf("response %d decode: %v", i, err)
		}
		if got.Model != resp.Model || got.Version != resp.Version || got.Err != resp.Err {
			t.Errorf("response %d header diverges", i)
		}
		if len(got.Features) != len(resp.Features) {
			t.Fatalf("response %d features: %d vs %d", i, len(got.Features), len(resp.Features))
		}
		for k := range resp.Features {
			if !got.Features[k].AllClose(resp.Features[k], 0) {
				t.Errorf("response %d feature %d diverges", i, k)
			}
		}
		if len(got.Outputs) != len(resp.Outputs) {
			t.Fatalf("response %d outputs: %d vs %d", i, len(got.Outputs), len(resp.Outputs))
		}
		for a := range resp.Outputs {
			for b := range resp.Outputs[a] {
				if !got.Outputs[a][b].AllClose(resp.Outputs[a][b], 0) {
					t.Errorf("response %d output [%d][%d] diverges", i, a, b)
				}
			}
		}
	}
}

// TestFloat32WireRounding pins the -wire f32 accuracy trade-off: values
// round-trip through float32 with relative error bounded by the format's
// epsilon, not exactly.
func TestFloat32WireRounding(t *testing.T) {
	req := &Request{Features: wireTensor(11, 1, 2, 8, 8)}
	body, err := appendRequest(nil, req, true, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := parseRequestInto(body, &got, nil, false, nil); err != nil {
		t.Fatal(err)
	}
	for i, v := range req.Features.Data {
		g := got.Features.Data[i]
		if g != float64(float32(v)) {
			t.Fatalf("element %d: got %v, want the float32 rounding of %v", i, g, v)
		}
		if rel := math.Abs(g-v) / math.Max(math.Abs(v), 1e-30); rel > 1e-6 {
			t.Errorf("element %d rounds with relative error %v", i, rel)
		}
	}
	// f32 payload is about half the f64 payload.
	body64, _ := appendRequest(nil, req, false, trace.Context{})
	if len(body) >= len(body64) {
		t.Errorf("f32 frame (%d bytes) not smaller than f64 frame (%d bytes)", len(body), len(body64))
	}
}

// TestHostileFramesRejected covers the frame parser's trust boundary:
// truncations and lying lengths must error without huge allocations or
// panics.
func TestHostileFramesRejected(t *testing.T) {
	good, err := appendRequest(nil, &Request{Features: wireTensor(12, 1, 2, 4, 4)}, false, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"wrong msg type":   {0xFF},
		"truncated header": good[:3],
		"truncated tensor": good[:len(good)-5],
		"trailing bytes":   append(append([]byte{}, good...), 1, 2, 3),
		// Claim a gigantic tensor over a short body: rank 4, dims 2^16 each.
		"lying dims": {wireMsgRequest, 0, 0, 0, 0, 0, 0, wireKindFeatures, 1, 0,
			4, wireDtypeF64, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0},
	}
	for name, body := range cases {
		var req Request
		if err := parseRequestInto(body, &req, nil, false, nil); err == nil {
			t.Errorf("%s: hostile request frame accepted", name)
		}
		var resp Response
		if err := parseResponseInto(body, &resp, nil); err == nil {
			t.Errorf("%s: hostile response frame accepted", name)
		}
	}
}

// TestCodecSteadyStateZeroAllocs pins the hot-path contract: after warm-up,
// request decode (arena path) and response encode reuse every buffer.
func TestCodecSteadyStateZeroAllocs(t *testing.T) {
	req := &Request{Features: wireTensor(13, 2, 4, 8, 8)}
	body, err := appendRequest(nil, req, false, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	j := newJob()
	resp := &Response{Features: []*tensor.Tensor{wireTensor(14, 2, 64), wireTensor(15, 2, 64)}}
	encBuf := make([]byte, 0, 4096)

	// Warm-up: size the arena and the encode buffer.
	if err := parseRequestInto(body, &j.req, j, false, nil); err != nil {
		t.Fatal(err)
	}
	j.reset()
	if encBuf, err = appendResponse(encBuf[:0], resp, nil, false, 0); err != nil {
		t.Fatal(err)
	}
	if cap(encBuf) < len(encBuf) {
		t.Fatal("unreachable")
	}

	allocs := testing.AllocsPerRun(50, func() {
		if err := parseRequestInto(body, &j.req, j, false, nil); err != nil {
			t.Fatal(err)
		}
		j.reset()
		var e error
		encBuf, e = appendResponse(encBuf[:0], resp, nil, false, 0)
		if e != nil {
			t.Fatal(e)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state codec cycle allocates %v times, want 0", allocs)
	}
}

// TestFloat32ClientEndToEnd drives the f32 wire against a live server and
// checks the result stays within float32 rounding of the f64 wire's.
func TestFloat32ClientEndToEnd(t *testing.T) {
	const nBodies = 2
	addr := startCodecServer(t, nBodies)
	x := wireTensor(17, 1, 4, 8, 8)

	exact, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()
	lossy, err := Dial(addr, WithWire(WireBinaryF32))
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()

	exf, _, err := exact.Exchange(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	lof, t2, err := lossy.Exchange(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exf.Features {
		if !lof.Features[i].AllClose(exf.Features[i], 1e-4) {
			t.Errorf("f32 wire features for body %d diverge beyond rounding", i)
		}
		if lof.Features[i].AllClose(exf.Features[i], 0) {
			t.Logf("body %d features happen to be f32-exact", i)
		}
	}
	// Rough byte check: the f32 upload should be well under the f64 one
	// would be (8 bytes per value plus framing).
	vals := x.Size()
	if t2.BytesUp >= vals*8 {
		t.Errorf("f32 upload of %d bytes for %d values — float32 payload not in effect", t2.BytesUp, vals)
	}
}

// TestDecodeWireStream pins the wiretap parser used by the shard privacy
// tests: a captured stream — hello with a declared client ID, then an
// untraced and a traced frame — yields the transmitted requests.
func TestDecodeWireStream(t *testing.T) {
	req := &Request{Model: "m", Features: wireTensor(18, 1, 2, 4, 4)}

	var bin bytes.Buffer
	bin.Write(appendHello(nil, false, "tapped-client"))
	codec := &clientCodec{binFramer{w: &bin}}
	if err := codec.writeRequest(req, trace.Context{}); err != nil {
		t.Fatal(err)
	}
	if err := codec.writeRequest(req, trace.Context{ID: 9}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWireStream(bin.Bytes())
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(got) != 2 || !got[0].Features.AllClose(req.Features, 0) || got[1].Model != "m" {
		t.Errorf("stream decoded %d requests", len(got))
	}

	// Truncated streams error instead of panicking.
	if _, err := DecodeWireStream(bin.Bytes()[:bin.Len()-3]); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := DecodeWireStream(bin.Bytes()[:5]); err == nil {
		t.Error("truncated hello accepted")
	}
}

// TestServerComputeLoopZeroAllocs pins the tentpole acceptance criterion at
// the server-loop level: decode → resolve → replica lookup → every body's
// inference pass → response copy-out → encode, with zero heap allocations
// at steady state. A regression here shows up in CI instead of in a GC
// profile under load.
func TestServerComputeLoopZeroAllocs(t *testing.T) {
	const nBodies = 3
	// workers > 1 selects the serial per-body loop, the production shape of
	// a multi-core server.
	srv := NewServer(codecBodies(nBodies), WithWorkers(2),
		WithReplicas(func() []*nn.Network { return codecBodies(nBodies) }))
	body, err := appendRequest(nil, &Request{Features: wireTensor(19, 2, 4, 8, 8)}, false, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	j := newJob()
	replicas := newReplicaCache(PrecisionF64)
	encBuf := make([]byte, 0, 1<<16)
	cycle := func() {
		if err := parseRequestInto(body, &j.req, j, false, nil); err != nil {
			t.Fatal(err)
		}
		resp := srv.serve(j, replicas)
		if resp.Err != "" {
			t.Fatal(resp.Err)
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
		t.Errorf("steady-state server compute loop allocates %v times per request, want 0", allocs)
	}

	// The batched form reaches steady state too (after its own warm-up).
	batched, err := appendRequest(nil, &Request{Inputs: []*tensor.Tensor{
		wireTensor(20, 1, 4, 8, 8), wireTensor(21, 2, 4, 8, 8)}}, false, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	body = batched
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("steady-state batched compute loop allocates %v times per request, want 0", allocs)
	}
}

// BenchmarkServeRequestLoop measures the per-request server loop in
// isolation — binary decode, resolve, replica lookup, every body pass,
// response copy-out, binary encode — and reports its allocation count,
// which must be 0 at steady state (pinned by TestServerComputeLoopZeroAllocs).
func BenchmarkServeRequestLoop(b *testing.B) {
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
	// Warm-up: clone replicas, size arenas and buffers, so the timed loop
	// is pure steady state.
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

// TestMalformedRequestsDoNotGrowScratches pins the panic-path memory fix: a
// request that clears validateFeatures but panics mid-network (hostile
// spatial dims) must not leave un-reset scratch arenas accumulating demand,
// or a stream of malformed requests inflates every worker's scratch buffers
// without bound.
func TestMalformedRequestsDoNotGrowScratches(t *testing.T) {
	// Bodies with a Flatten→Linear boundary: a request whose spatial dims
	// clear validateFeatures still panics at the Linear, AFTER the earlier
	// layers have already drawn activations from the scratch.
	flatBodies := func() []*nn.Network {
		out := make([]*nn.Network, 2)
		for i := range out {
			r := rng.New(int64(40 + i))
			out[i] = nn.NewNetwork(fmt.Sprintf("fb%d", i),
				nn.NewBatchNorm2D("bn", 4),
				nn.NewReLU(),
				nn.NewFlatten(),
				nn.NewLinear("fc", 4*8*8, 4, r),
			)
		}
		return out
	}
	srv := NewServer(flatBodies(), WithWorkers(2), WithReplicas(flatBodies))
	j := newJob()
	replicas := newReplicaCache(PrecisionF64)

	good := &Request{Features: wireTensor(23, 1, 4, 8, 8)}
	// Right rank and channels, wrong spatial size: flattens to 64 ≠ 256.
	bad := &Request{Features: wireTensor(24, 1, 4, 4, 4)}

	serve := func(req *Request) *Response {
		j.req = *req
		resp := srv.serve(j, replicas)
		j.reset()
		return resp
	}
	if resp := serve(good); resp.Err != "" {
		t.Fatalf("good request failed: %s", resp.Err)
	}
	if resp := serve(bad); resp.Err == "" {
		t.Fatal("hostile-shape request must produce an error response")
	}
	m, err := srv.provider.Resolve("", 0)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := replicas.replicaFor(m)
	if err != nil {
		t.Fatal(err)
	}
	// Let the post-failure state settle into steady state, then record it.
	serve(good)
	serve(bad)
	footprint := func() int {
		total := 0
		for _, sc := range wr.scratches {
			total += sc.Footprint()
		}
		return total
	}
	before := footprint()
	for i := 0; i < 50; i++ {
		serve(bad)
	}
	serve(good)
	if after := footprint(); after > before {
		t.Errorf("50 malformed requests grew the replica scratches from %d to %d bytes", before, after)
	}
}
