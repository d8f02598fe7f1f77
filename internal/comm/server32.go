package comm

// The float32 serving path: runtime precision dispatch over the same worker
// pool, job recycling, and continuous-batching machinery as the f64 path.
// A server built WithPrecision(PrecisionF32) compiles each worker's body
// replicas to nn.Net32 and computes every request on the f32 kernels; when
// the connection also negotiated the f32 wire, the decode→forward→encode
// path performs no float64 conversion at all — the payload bits feed the
// kernels directly, fixing the double-rounding the f32 wire used to pay
// (f32 payload widened to f64, computed, narrowed again on encode).
//
// Wire requests always decode straight into the f32 arena: an f64 payload
// narrows there, exactly once. Requests handed over as float64 tensors (the
// synchronous process entry) narrow at serve time instead and their results
// widen exactly (every float32 is a float64), so either ingress pays one
// rounding step.

import (
	"fmt"
	"sync"

	"ensembler/internal/nn"
	"ensembler/internal/tensor"
)

// Precision selects the element type the compute path runs in.
type Precision int

const (
	// PrecisionF64 computes in float64 — the reference oracle, bit-identical
	// to every release before precision dispatch existed. The default.
	PrecisionF64 Precision = iota
	// PrecisionF32 compiles worker replicas to float32 and serves on the f32
	// kernels: half the memory traffic, forward drift bounded at 1e-5
	// relative by the nn and audit property tests.
	PrecisionF32
)

func (p Precision) String() string {
	if p == PrecisionF32 {
		return "f32"
	}
	return "f64"
}

// ParsePrecision parses the -precision flag / registry manifest form. The
// empty string is the float64 default, matching manifests that predate the
// field.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64":
		return PrecisionF64, nil
	case "f32":
		return PrecisionF32, nil
	}
	return 0, fmt.Errorf("comm: unknown precision %q (want f64 or f32)", s)
}

// WithPrecision selects the compute element type for every model the server
// hosts. PrecisionF32 requires every hosted layer to have an f32 compile
// path (all built-in nn layers do); a model that does not compile fails its
// requests with the compile error rather than silently falling back to f64.
func WithPrecision(p Precision) ServerOption {
	return func(o *serverOptions) { o.precision = p }
}

// decodedF32 reports whether the request was decoded directly into float32
// storage (wire ingress on a PrecisionF32 server). False for sync ingress,
// whose tensors arrive as float64 and narrow at serve time.
func (j *job) decodedF32() bool { return j.feat32 != nil || len(j.inputs32) > 0 }

// validateTensor32 is validateTensor for wire-decoded float32 tensors.
func validateTensor32(f *tensor.Tensor32) error {
	if f == nil {
		return fmt.Errorf("comm: missing tensor")
	}
	if len(f.Shape) == 0 {
		return fmt.Errorf("comm: tensor has empty shape")
	}
	n := 1
	for _, d := range f.Shape {
		if d <= 0 {
			return fmt.Errorf("comm: tensor has non-positive dimension in shape %v", f.Shape)
		}
		n *= d
	}
	if len(f.Data) != n {
		return fmt.Errorf("comm: tensor carries %d values for shape %v", len(f.Data), f.Shape)
	}
	return nil
}

// validateFeatures32 is validateFeatures for wire-decoded float32 tensors.
func validateFeatures32(f *tensor.Tensor32) error {
	if f == nil || len(f.Shape) != 4 {
		return fmt.Errorf("comm: request must carry [N,C,H,W] features")
	}
	return validateTensor32(f)
}

// processUnguarded32 is processUnguarded for a PrecisionF32 server. Both
// ingress precisions land here: f32-decoded requests compute and respond
// without any f64 conversion (j.f32Resp routes the encoder to the f32
// payload), f64 requests narrow once at ingress and widen their results into
// the ordinary float64 Response.
func (s *Server) processUnguarded32(j *job, wr *workerReplica) *Response {
	f32In := j.decodedF32()
	switch {
	case j.req.Inputs != nil || len(j.inputs32) > 0:
		n := len(j.req.Inputs)
		if f32In {
			n = len(j.inputs32)
		}
		if n == 0 {
			return &Response{Err: "comm: batched request carries no inputs"}
		}
		if n > s.opts.maxBatch {
			return &Response{Err: fmt.Sprintf("comm: batch of %d exceeds server cap %d", n, s.opts.maxBatch)}
		}
		stacked, err := j.stackInputs32()
		if err != nil {
			return &Response{Err: err.Error()}
		}
		perBody := s.forwardBodies32(&j.outs32, wr, stacked)
		// Transpose [body][input] into the wire layout [input][body], copying
		// each part out of its body's scratch into the job arena — f32 parts
		// for f32-decoded requests, widened f64 parts otherwise.
		nb := len(perBody)
		if f32In {
			if cap(j.outputs32) < len(j.rows) {
				j.outputs32 = make([][]*tensor.Tensor32, len(j.rows))
			}
			j.outputs32 = j.outputs32[:len(j.rows)]
			for i := range j.outputs32 {
				if cap(j.outputs32[i]) < nb {
					j.outputs32[i] = make([]*tensor.Tensor32, nb)
				}
				j.outputs32[i] = j.outputs32[i][:nb]
			}
		} else {
			if cap(j.outputs) < len(j.rows) {
				j.outputs = make([][]*tensor.Tensor, len(j.rows))
			}
			j.outputs = j.outputs[:len(j.rows)]
			for i := range j.outputs {
				if cap(j.outputs[i]) < nb {
					j.outputs[i] = make([]*tensor.Tensor, nb)
				}
				j.outputs[i] = j.outputs[i][:nb]
			}
		}
		for b, out := range perBody {
			per := out.Size() / out.Shape[0]
			off := 0
			for i, r := range j.rows {
				shape := append(j.shape[:0], r)
				shape = append(shape, out.Shape[1:]...)
				if f32In {
					part := j.arena32.NewTensor(shape...)
					copy(part.Data, out.Data[off:off+r*per])
					j.outputs32[i][b] = part
				} else {
					part := j.arena.NewTensor(shape...)
					for k, v := range out.Data[off : off+r*per] {
						part.Data[k] = float64(v)
					}
					j.outputs[i][b] = part
				}
				off += r * per
			}
		}
		if f32In {
			j.f32Resp = true
			j.resp = Response{}
		} else {
			j.resp = Response{Outputs: j.outputs}
		}
		return &j.resp
	case f32In:
		if err := validateFeatures32(j.feat32); err != nil {
			return &Response{Err: err.Error()}
		}
		perBody := s.forwardBodies32(&j.outs32, wr, j.feat32)
		feats := j.feats32[:0]
		for _, out := range perBody {
			feats = append(feats, j.arena32.Clone(out))
		}
		j.feats32 = feats
		j.f32Resp = true
		j.resp = Response{}
		return &j.resp
	default:
		if err := validateFeatures(j.req.Features); err != nil {
			return &Response{Err: err.Error()}
		}
		x := tensor.NarrowInto(j.arena32.NewTensor(j.req.Features.Shape...), j.req.Features)
		perBody := s.forwardBodies32(&j.outs32, wr, x)
		feats := j.feats[:0]
		for _, out := range perBody {
			feats = append(feats, tensor.WidenInto(j.arena.NewTensor(out.Shape...), out))
		}
		j.feats = feats
		j.resp = Response{Features: feats}
		return &j.resp
	}
}

// stackInputs32 is job.stackInputs for a PrecisionF32 server: it stacks an
// f32-decoded batch verbatim, or narrows a float64 batch row by row while
// stacking — either way into the job's f32 arena, recording per-input row
// counts in j.rows.
func (j *job) stackInputs32() (*tensor.Tensor32, error) {
	if len(j.inputs32) > 0 {
		inputs := j.inputs32
		rows := j.rows[:0]
		total := 0
		for i, in := range inputs {
			if err := validateFeatures32(in); err != nil {
				return nil, err
			}
			if i > 0 {
				a, b := inputs[0].Shape, in.Shape
				if a[1] != b[1] || a[2] != b[2] || a[3] != b[3] {
					return nil, fmt.Errorf("comm: batched inputs disagree on feature shape: %v vs %v", a[1:], b[1:])
				}
			}
			rows = append(rows, in.Shape[0])
			total += in.Shape[0]
		}
		j.rows = rows
		s := inputs[0].Shape
		out := j.arena32.NewTensor(total, s[1], s[2], s[3])
		off := 0
		for _, in := range inputs {
			off += copy(out.Data[off:], in.Data)
		}
		return out, nil
	}
	inputs := j.req.Inputs
	rows := j.rows[:0]
	total := 0
	for i, in := range inputs {
		if err := validateFeatures(in); err != nil {
			return nil, err
		}
		if i > 0 {
			a, b := inputs[0].Shape, in.Shape
			if a[1] != b[1] || a[2] != b[2] || a[3] != b[3] {
				return nil, fmt.Errorf("comm: batched inputs disagree on feature shape: %v vs %v", a[1:], b[1:])
			}
		}
		rows = append(rows, in.Shape[0])
		total += in.Shape[0]
	}
	j.rows = rows
	s := inputs[0].Shape
	out := j.arena32.NewTensor(total, s[1], s[2], s[3])
	off := 0
	for _, in := range inputs {
		for _, v := range in.Data {
			out.Data[off] = float32(v)
			off++
		}
	}
	return out, nil
}

// forwardBodies32 is forwardBodies over the replica's compiled f32 bodies,
// with the same parallelism contract: serial under a multi-worker pool,
// per-body fan-out on a single-worker server.
func (s *Server) forwardBodies32(slot *[]*tensor.Tensor32, wr *workerReplica, x *tensor.Tensor32) []*tensor.Tensor32 {
	// Mirrors forwardBodies: the serial path must not share a local with the
	// goroutine-spawning branch, or escape analysis heap-moves the slice
	// header on every call.
	if s.opts.workers > 1 || len(wr.bodies32) == 1 {
		outs := (*slot)[:0]
		for i, b := range wr.bodies32 {
			sc := wr.scratches32[i]
			sc.Reset()
			outs = append(outs, b.ForwardInfer(x, sc))
		}
		*slot = outs
		return outs
	}
	return forwardBodiesParallel32(slot, wr, x)
}

// forwardBodiesParallel32 is the single-worker fan-out over f32 bodies; a
// panic in any body's goroutine is re-raised for processWith to absorb.
func forwardBodiesParallel32(slot *[]*tensor.Tensor32, wr *workerReplica, x *tensor.Tensor32) []*tensor.Tensor32 {
	outs := (*slot)[:0]
	for range wr.bodies32 {
		outs = append(outs, nil)
	}
	*slot = outs
	panics := make(chan any, len(wr.bodies32))
	var wg sync.WaitGroup
	for i, b := range wr.bodies32 {
		wg.Add(1)
		go func(i int, b *nn.Net32) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics <- r
				}
			}()
			sc := wr.scratches32[i]
			sc.Reset()
			outs[i] = b.ForwardInfer(x, sc)
		}(i, b)
	}
	wg.Wait()
	select {
	case r := <-panics:
		panic(r)
	default:
	}
	return outs
}

// coalescedPass32 is serveCoalesced's stack→forward→split core for a
// PrecisionF32 server, whose wire requests all decode into f32 storage: the
// batch stacks verbatim and splits into f32 responses.
func (s *Server) coalescedPass32(b *dispatchBatch, wr *workerReplica, m ServedModel) {
	total := 0
	rows := b.rows[:0]
	for _, j := range b.jobs {
		if j.resp.Err != "" { // refused by the budget guard in serveCoalesced
			rows = append(rows, -1)
			continue
		}
		if err := validateFeatures32(j.feat32); err != nil {
			j.resp = Response{Err: err.Error()}
			rows = append(rows, -1)
			continue
		}
		rows = append(rows, j.feat32.Shape[0])
		total += j.feat32.Shape[0]
	}
	b.rows = rows
	if total == 0 {
		return // every member failed validation; each carries its own error
	}
	hs := b.jobs[0].feat32.Shape
	stacked := b.arena32.NewTensor(total, hs[1], hs[2], hs[3])
	off := 0
	for i, j := range b.jobs {
		if b.rows[i] >= 0 {
			off += copy(stacked.Data[off:], j.feat32.Data)
		}
	}
	outs := s.forwardBodies32(&b.outs32, wr, stacked)
	row := 0
	for i, j := range b.jobs {
		r := b.rows[i]
		if r < 0 {
			continue
		}
		feats := j.feats32[:0]
		for _, out := range outs {
			per := out.Size() / out.Shape[0]
			shape := append(j.shape[:0], r)
			shape = append(shape, out.Shape[1:]...)
			part := j.arena32.NewTensor(shape...)
			copy(part.Data, out.Data[row*per:(row+r)*per])
			feats = append(feats, part)
		}
		j.feats32 = feats
		j.f32Resp = true
		j.resp = Response{Model: m.Name(), Version: m.Version()}
		if j.noiseSigma > 0 {
			noiseResponse(j, &j.resp)
		}
		row += r
	}
}
