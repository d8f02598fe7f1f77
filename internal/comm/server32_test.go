package comm

import (
	"math"
	"testing"

	"ensembler/internal/nn"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// directF32 computes what the f32 backend must produce for x32: every codec
// body compiled to Net32 and run on the exact same float32 input bits. The
// serving path — decode, arena staging, replica cloning, response copy-out —
// must reproduce these values bit for bit.
func directF32(t testing.TB, n int, x32 *tensor.Tensor32) []*tensor.Tensor32 {
	t.Helper()
	outs := make([]*tensor.Tensor32, n)
	for i, b := range codecBodies(n) {
		n32, err := nn.CompileF32(b)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = n32.ForwardInfer(x32, nn.NewScratch32())
	}
	return outs
}

func newF32Server(n int) *Server {
	return NewServer(codecBodies(n), WithWorkers(2), WithPrecision(PrecisionF32),
		WithReplicas(func() []*nn.Network { return codecBodies(n) }))
}

// TestF32WireF32ComputeBitExact is the double-rounding regression test: a
// request on the f32 wire served by a PrecisionF32 server must answer with
// exactly the bits of the direct float32 computation — no intermediate f64
// round trip anywhere in decode → forward → encode. (The old failure mode:
// the f32 payload widened to f64, computed on the f64 kernels, and narrowed
// again on encode, rounding twice.)
func TestF32WireF32ComputeBitExact(t *testing.T) {
	const nBodies = 3
	srv := newF32Server(nBodies)
	x := wireTensor(31, 2, 4, 8, 8)
	want := directF32(t, nBodies, tensor.Narrow32(x))

	body, err := appendRequest(nil, &Request{Features: x}, true, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	j := newJob()
	replicas := newReplicaCache(PrecisionF32)
	if err := parseRequestInto(body, &j.req, j, true, nil); err != nil {
		t.Fatal(err)
	}
	resp := srv.serve(j, replicas)
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if !j.f32Resp {
		t.Fatal("f32-wire request on an f32 server did not take the f32 response path")
	}
	enc, err := appendResponse(nil, resp, j, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := parseResponseInto(enc, &got, nil); err != nil {
		t.Fatal(err)
	}
	if len(got.Features) != nBodies {
		t.Fatalf("response carries %d feature maps, want %d", len(got.Features), nBodies)
	}
	for b, w := range want {
		g := got.Features[b]
		if len(g.Data) != len(w.Data) {
			t.Fatalf("body %d: response shape %v, direct %v", b, g.Shape, w.Shape)
		}
		for k, v := range w.Data {
			// The client decodes the f32 wire by exact widening, so bitwise
			// f32 equality is float64 equality here.
			if math.Float64bits(g.Data[k]) != math.Float64bits(float64(v)) {
				t.Fatalf("body %d feature %d: served %v, direct f32 %v — a float64 conversion leaked into the f32 path",
					b, k, g.Data[k], v)
			}
		}
	}
}

// TestF32ServerF64IngressExact pins the one-rounding-step contract for the
// float64 dialects of a PrecisionF32 server: the input narrows exactly once
// (to the same bits the f32 wire would carry) and every result widens
// exactly, so an f64-wire or sync client sees precisely the direct float32
// computation — rounded nowhere further.
func TestF32ServerF64IngressExact(t *testing.T) {
	const nBodies = 3
	srv := newF32Server(nBodies)
	x := wireTensor(33, 2, 4, 8, 8)
	want := directF32(t, nBodies, tensor.Narrow32(x))

	// Binary f64 wire: the codec narrows at decode time.
	body, err := appendRequest(nil, &Request{Features: x}, false, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	j := newJob()
	replicas := newReplicaCache(PrecisionF32)
	if err := parseRequestInto(body, &j.req, j, true, nil); err != nil {
		t.Fatal(err)
	}
	resp := srv.serve(j, replicas)
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	enc, err := appendResponse(nil, resp, j, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := parseResponseInto(enc, &got, nil); err != nil {
		t.Fatal(err)
	}
	checkWidenedExact(t, "binary-f64", &got, want)

	// Sync ingress: float64 tensors narrow at serve time instead of
	// decode time — same bits, same results.
	j2 := newJob()
	j2.req.Features = x
	resp2 := srv.serve(j2, newReplicaCache(PrecisionF32))
	if resp2.Err != "" {
		t.Fatal(resp2.Err)
	}
	checkWidenedExact(t, "sync", resp2, want)
}

func checkWidenedExact(t *testing.T, path string, got *Response, want []*tensor.Tensor32) {
	t.Helper()
	if len(got.Features) != len(want) {
		t.Fatalf("%s: response carries %d feature maps, want %d", path, len(got.Features), len(want))
	}
	for b, w := range want {
		g := got.Features[b]
		if len(g.Data) != len(w.Data) {
			t.Fatalf("%s body %d: response shape %v, direct %v", path, b, g.Shape, w.Shape)
		}
		for k, v := range w.Data {
			if math.Float64bits(g.Data[k]) != math.Float64bits(float64(v)) {
				t.Fatalf("%s body %d feature %d: served %v, direct f32 widens to %v",
					path, b, k, g.Data[k], float64(v))
			}
		}
	}
}

// TestF32BatchedWireBitExact extends the bit-exactness pin to the batched
// request form: stacked forward, per-input split, f32 response payload.
func TestF32BatchedWireBitExact(t *testing.T) {
	const nBodies = 2
	srv := newF32Server(nBodies)
	in0, in1 := wireTensor(35, 1, 4, 8, 8), wireTensor(36, 2, 4, 8, 8)
	// The server stacks the batch into one [3,C,H,W] pass; reproduce that
	// stacking on the narrowed bits.
	stacked := tensor.New(3, 4, 8, 8)
	copy(stacked.Data, in0.Data)
	copy(stacked.Data[in0.Size():], in1.Data)
	want := directF32(t, nBodies, tensor.Narrow32(stacked))

	body, err := appendRequest(nil, &Request{Inputs: []*tensor.Tensor{in0, in1}}, true, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	j := newJob()
	if err := parseRequestInto(body, &j.req, j, true, nil); err != nil {
		t.Fatal(err)
	}
	resp := srv.serve(j, newReplicaCache(PrecisionF32))
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	enc, err := appendResponse(nil, resp, j, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := parseResponseInto(enc, &got, nil); err != nil {
		t.Fatal(err)
	}
	if len(got.Outputs) != 2 {
		t.Fatalf("batched response carries %d rows, want 2", len(got.Outputs))
	}
	rows := []int{1, 2}
	off := 0
	for i, row := range got.Outputs {
		if len(row) != nBodies {
			t.Fatalf("input %d: %d body outputs, want %d", i, len(row), nBodies)
		}
		for b, g := range row {
			w := want[b]
			per := w.Size() / w.Shape[0]
			part := w.Data[off*per : (off+rows[i])*per]
			if len(g.Data) != len(part) {
				t.Fatalf("input %d body %d: %d values, want %d", i, b, len(g.Data), len(part))
			}
			for k, v := range part {
				if math.Float64bits(g.Data[k]) != math.Float64bits(float64(v)) {
					t.Fatalf("input %d body %d feature %d: served %v, direct f32 %v", i, b, k, g.Data[k], v)
				}
			}
		}
		off += rows[i]
	}
}

// TestServerComputeLoopZeroAllocsF32 pins the tentpole acceptance criterion
// for the float32 backend: the full f32 server loop — binary decode into the
// f32 arena, resolve, replica lookup (compiled Net32 bodies), every body
// pass, response copy-out, f32 encode — performs zero heap allocations at
// steady state, exactly like its f64 twin above.
func TestServerComputeLoopZeroAllocsF32(t *testing.T) {
	const nBodies = 3
	srv := newF32Server(nBodies)
	body, err := appendRequest(nil, &Request{Features: wireTensor(19, 2, 4, 8, 8)}, true, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	j := newJob()
	replicas := newReplicaCache(PrecisionF32)
	encBuf := make([]byte, 0, 1<<16)
	cycle := func() {
		if err := parseRequestInto(body, &j.req, j, true, nil); err != nil {
			t.Fatal(err)
		}
		resp := srv.serve(j, replicas)
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		var e error
		encBuf, e = appendResponse(append(encBuf[:0], 0, 0, 0, 0), resp, j, true, 0)
		if e != nil {
			t.Fatal(e)
		}
		j.reset()
	}
	cycle() // warm-up: compile replicas, size arenas and buffers
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("steady-state f32 server compute loop allocates %v times per request, want 0", allocs)
	}

	// The batched form reaches steady state too (after its own warm-up).
	batched, err := appendRequest(nil, &Request{Inputs: []*tensor.Tensor{
		wireTensor(20, 1, 4, 8, 8), wireTensor(21, 2, 4, 8, 8)}}, true, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	body = batched
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("steady-state batched f32 compute loop allocates %v times per request, want 0", allocs)
	}
}

// BenchmarkServeRequestLoopF32 is BenchmarkServeRequestLoop on the float32
// backend — same request shape, same loop, f32 decode/compute/encode. CI runs
// both and gates the f32 loop at ≥1.2× the f64 requests/sec.
func BenchmarkServeRequestLoopF32(b *testing.B) {
	const nBodies = 4
	srv := newF32Server(nBodies)
	body, err := appendRequest(nil, &Request{Features: wireTensor(22, 4, 4, 8, 8)}, true, trace.Context{})
	if err != nil {
		b.Fatal(err)
	}
	j := newJob()
	replicas := newReplicaCache(PrecisionF32)
	encBuf := make([]byte, 0, 1<<20)
	for i := 0; i < 2; i++ {
		if err := parseRequestInto(body, &j.req, j, true, nil); err != nil {
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
		if err := parseRequestInto(body, &j.req, j, true, nil); err != nil {
			b.Fatal(err)
		}
		resp := srv.serve(j, replicas)
		if resp.Err != "" {
			b.Fatal(resp.Err)
		}
		var e error
		encBuf, e = appendResponse(append(encBuf[:0], 0, 0, 0, 0), resp, j, true, 0)
		if e != nil {
			b.Fatal(e)
		}
		j.reset()
	}
}
