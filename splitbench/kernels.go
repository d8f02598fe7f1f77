package main

import (
	"fmt"
	"strings"
	"time"

	"ensembler/internal/ensemble"
	"ensembler/internal/nn"
	"ensembler/internal/tensor"
)

// kernelIters is how many passes each kernel timing takes its median over.
const kernelIters = 300

// timeMedian runs f iters times and returns the median duration.
func timeMedian(iters int, f func()) time.Duration {
	d := make(durs, iters)
	for i := range d {
		start := time.Now()
		f()
		d[i] = time.Since(start)
	}
	return d.quantile(0.5)
}

// kernelTable times one server body of e layer by layer on the inference
// path, the whole body in f64 and f32, and the client head on its training
// and inference paths, for the single-image request x. It also derives each
// layer's multiply-accumulates and bytes moved from the tensor shapes;
// those are computed, not measured.
func kernelTable(e *ensemble.Ensembler, x *tensor.Tensor) ([]metric, error) {
	rt := e.NewClientRuntime()
	feats := rt.Features(x)
	body := e.CloneBodies()[0]
	s := body.InferScratch(feats.Shape...)

	n := len(body.Layers)
	per := make([]durs, n)
	shapes := make([][]int, n+1)
	shapes[0] = feats.Shape
	for it := 0; it < kernelIters; it++ {
		s.Reset()
		h := feats
		for i, l := range body.Layers {
			start := time.Now()
			h = l.(nn.InferenceLayer).ForwardInfer(h, s)
			per[i] = append(per[i], time.Since(start))
			shapes[i+1] = append(shapes[i+1][:0], h.Shape...)
		}
	}
	var out []metric
	var total time.Duration
	med := make([]time.Duration, n)
	for i := range per {
		med[i] = per[i].quantile(0.5)
		total += med[i]
	}
	var macs, bytes int64
	for i, l := range body.Layers {
		name := fmt.Sprintf("nn.f64.layer%d_%s", i, layerKind(l))
		m, b := traffic(l, shapes[i], shapes[i+1])
		macs += m
		bytes += b
		out = append(out,
			metric{name + "_us", us(med[i]), "us"},
			metric{name + "_share", float64(med[i]) / float64(total), "ratio"},
			metric{name + "_macs", float64(m), "count"},
			metric{name + "_bytes", float64(b), "bytes"})
	}

	whole := timeMedian(kernelIters, func() { s.Reset(); body.ForwardInfer(feats, s) })
	net32, err := nn.CompileF32(body)
	if err != nil {
		return nil, err
	}
	x32 := tensor.Narrow32(feats)
	s32 := net32.InferScratch(feats.Shape...)
	whole32 := timeMedian(kernelIters, func() { s32.Reset(); net32.ForwardInfer(x32, s32) })
	hs := rt.Head.InferScratch(x.Shape...)
	headFwd := timeMedian(kernelIters, func() { rt.Head.Forward(x, false) })
	headInf := timeMedian(kernelIters, func() { hs.Reset(); rt.Head.ForwardInfer(x, hs) })
	return append(out,
		metric{"nn.f64.body_us", us(whole), "us"},
		metric{"nn.f32.body_us", us(whole32), "us"},
		metric{"nn.head_forward_us", us(headFwd), "us"},
		metric{"nn.head_infer_us", us(headInf), "us"},
		metric{"nn.body_mflop", 2 * float64(macs) / 1e6, "Mflop"},
		metric{"nn.body_bytes_moved", float64(bytes), "bytes"},
	), nil
}

// layerKind names a layer by its type: "batchnorm2d", "basicblock", ...
func layerKind(l nn.Layer) string {
	name := fmt.Sprintf("%T", l)
	return strings.ToLower(name[strings.LastIndex(name, ".")+1:])
}

func elems(shape []int) int64 {
	n := int64(1)
	for _, d := range shape {
		n *= int64(d)
	}
	return n
}

// traffic computes a layer's multiply-accumulates and the f64 bytes it
// moves for one pass from in to out: every input read once, every output
// written once, every weight and normalization statistic read once, with no
// reuse between the sub-steps of a composite layer.
func traffic(l nn.Layer, in, out []int) (macs, bytes int64) {
	const f64 = 8
	switch v := l.(type) {
	case *nn.Conv2D:
		return elems(out) * int64(v.InC*v.KH*v.KW), f64 * (elems(in) + elems(out) + paramElems(v))
	case *nn.Linear:
		return elems(out) * int64(v.In), f64 * (elems(in) + elems(out) + paramElems(v))
	case *nn.BatchNorm2D:
		return elems(out), f64 * (elems(in) + elems(out) + 4*int64(v.C))
	case *nn.BasicBlock:
		// Every sub-step after the first convolution works at the block's
		// output shape.
		type step struct {
			l  nn.Layer
			in []int
		}
		steps := []step{{v.Conv1, in}, {v.BN1, out}, {v.Relu1, out}, {v.Conv2, out}, {v.BN2, out}}
		if v.ShortConv != nil {
			steps = append(steps, step{v.ShortConv, in}, step{v.ShortBN, out})
		}
		for _, st := range steps {
			m, b := traffic(st.l, st.in, out)
			macs += m
			bytes += b
		}
		// The residual sum reads two tensors and writes one; the final ReLU
		// reads and writes one.
		return macs, bytes + f64*5*elems(out)
	default:
		return 0, f64 * (elems(in) + elems(out))
	}
}

func paramElems(l nn.Layer) int64 {
	var n int64
	for _, p := range l.Params() {
		n += int64(p.Value.Size())
	}
	return n
}

// clientAllocs counts the heap allocations of the client half of one
// request — head, fixed noise, selection and tail on a ClientRuntime —
// averaged over iters requests, with no other traffic running.
func clientAllocs(e *ensemble.Ensembler, x *tensor.Tensor, iters int) float64 {
	rt := e.NewClientRuntime()
	bodies := e.ServerCompute(rt.Features(x))
	rt.Tail.Forward(rt.Select(bodies), false)
	before := heapAllocs()
	for i := 0; i < iters; i++ {
		rt.Features(x)
		rt.Tail.Forward(rt.Select(bodies), false)
	}
	return float64(heapAllocs()-before) / float64(iters)
}
