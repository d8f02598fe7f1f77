package nn

import (
	"fmt"
	"math"

	"ensembler/internal/tensor"
)

// This file is the float32 inference backend: a Network is compiled once
// into a Net32 whose weights were narrowed to float32 at compile time, and
// whose forward pass runs entirely on the f32 *Into kernels over an Arena32
// scratch — the precision the serving path selects with -precision f32.
//
// The float64 ForwardInfer stays untouched as the reference oracle: a Net32
// is a second implementation, not a parameterization of the first, so the
// f64 path keeps producing bit-identical results to every prior release.
// Drift policy (DESIGN.md §2i): weights and features are each rounded to
// float32 exactly once, kernels accumulate in float32 (reductions with long
// error chains — global average pooling — accumulate in float64), and the
// end-to-end divergence from the f64 oracle is held under 1e-5 relative by
// TestCompileF32Drift and the seed-network property test in internal/audit.

// Scratch32 is the reusable activation storage for f32 inference passes.
// The zero value is usable; the first pass sizes it. Same ownership rules as
// Scratch: Reset invalidates every returned tensor, one goroutine per
// scratch.
type Scratch32 struct {
	arena tensor.Arena32
}

// NewScratch32 returns an empty scratch; the first ForwardInfer sizes it.
func NewScratch32() *Scratch32 { return &Scratch32{} }

// Reset reclaims the scratch for the next pass, invalidating every tensor
// the previous pass returned.
func (s *Scratch32) Reset() { s.arena.Reset() }

// Footprint reports the warmed scratch's backing memory in bytes.
func (s *Scratch32) Footprint() int { return s.arena.Footprint() }

// layer32 is one compiled f32 inference layer.
type layer32 interface {
	forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32
}

// Net32 is a Network compiled for float32 inference: weights pre-narrowed,
// layers specialized to the f32 kernels. Like a Network replica it is safe
// for one goroutine at a time. It holds no references to the source
// network's parameter tensors except through AdditiveNoise resample mode
// (which mutates the source layer exactly as the f64 path does).
type Net32 struct {
	Name   string
	layers []layer32
}

// CompileF32 narrows a network's weights to float32 and returns its f32
// inference twin. Every built-in layer type compiles; a custom Layer
// implementation (which the f64 path would run via its Forward fallback)
// has no f32 counterpart and returns an error — precision dispatch must not
// silently change which code serves a model.
func CompileF32(n *Network) (*Net32, error) {
	out := &Net32{Name: n.Name, layers: make([]layer32, 0, len(n.Layers))}
	for i, l := range n.Layers {
		cl, err := compileLayer32(l)
		if err != nil {
			return nil, fmt.Errorf("nn: CompileF32 %s layer %d: %w", n.Name, i, err)
		}
		out.layers = append(out.layers, cl)
	}
	return out, nil
}

// compileLayer32 narrows one layer. The type switch is the compile-time
// mirror of the InferenceLayer conformance list in infer.go.
func compileLayer32(l Layer) (layer32, error) {
	switch v := l.(type) {
	case *Network:
		return CompileF32(v)
	case *Conv2D:
		return compileConv32(v), nil
	case *Linear:
		return &linear32{
			in: v.In, out: v.Out,
			w: tensor.Narrow32(v.W.Value), b: tensor.Narrow32(v.B.Value), name: v.W.Name,
		}, nil
	case *BatchNorm2D:
		return compileBN32(v), nil
	case *ReLU:
		return relu32{}, nil
	case *LeakyReLU:
		return leakyReLU32{alpha: float32(v.Alpha)}, nil
	case *Sigmoid:
		return sigmoid32{}, nil
	case *Tanh:
		return tanh32{}, nil
	case *MaxPool2D:
		return maxPool32{k: v.K, stride: v.Stride}, nil
	case *GlobalAvgPool:
		return globalAvgPool32{}, nil
	case *Upsample2D:
		return upsample32{factor: v.Factor}, nil
	case *Flatten:
		return flatten32{}, nil
	case *Reshape2D4D:
		return reshape32{c: v.C, h: v.H, w: v.W}, nil
	case *AdditiveNoise:
		return &additiveNoise32{src: v, noise: narrowSlice(v.Noise.Value.Data)}, nil
	case *Dropout:
		return dropout32{}, nil
	case *BasicBlock:
		blk := &basicBlock32{
			conv1: compileConv32(v.Conv1), bn1: compileBN32(v.BN1),
			conv2: compileConv32(v.Conv2), bn2: compileBN32(v.BN2),
		}
		if v.ShortConv != nil {
			blk.shortConv = compileConv32(v.ShortConv)
			blk.shortBN = compileBN32(v.ShortBN)
		}
		return blk, nil
	default:
		return nil, fmt.Errorf("no float32 inference path for layer type %T", l)
	}
}

// compileConv32 narrows one convolution layer.
func compileConv32(v *Conv2D) *conv2D32 {
	var b *tensor.Tensor32
	if v.B != nil {
		b = tensor.Narrow32(v.B.Value)
	}
	return &conv2D32{
		inC: v.InC, outC: v.OutC, kh: v.KH, kw: v.KW, stride: v.Stride, pad: v.Pad,
		w: tensor.Narrow32(v.W.Value), b: b, name: v.W.Name,
	}
}

// compileBN32 folds one batch-norm layer's running statistics to f32. The
// reciprocal square root is computed in f64 and narrowed once — the same
// rounding structure as the f64 path.
func compileBN32(v *BatchNorm2D) *batchNorm32 {
	bn := &batchNorm32{
		c:    v.C,
		mean: make([]float32, v.C), inv: make([]float32, v.C),
		gamma: make([]float32, v.C), beta: make([]float32, v.C),
		name: v.Gamma.Name,
	}
	for ci := 0; ci < v.C; ci++ {
		bn.mean[ci] = float32(v.RunMean.Data[ci])
		bn.inv[ci] = float32(1 / math.Sqrt(v.RunVar.Data[ci]+v.Eps))
		bn.gamma[ci] = float32(v.Gamma.Value.Data[ci])
		bn.beta[ci] = float32(v.Beta.Value.Data[ci])
	}
	return bn
}

// narrowSlice rounds a float64 slice to a fresh float32 slice.
func narrowSlice(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}

// ForwardInfer runs the compiled stack over the scratch. The result lives in
// the scratch and is invalidated by Scratch32.Reset, like the f64 path.
func (n *Net32) ForwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	for _, l := range n.layers {
		x = l.forwardInfer(x, s)
	}
	return x
}

func (n *Net32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	return n.ForwardInfer(x, s)
}

// InferScratch returns a Scratch32 pre-sized for inputs of the given shape
// by one throwaway warm-up pass, mirroring Network.InferScratch.
func (n *Net32) InferScratch(inputShape ...int) *Scratch32 {
	s := NewScratch32()
	n.ForwardInfer(tensor.New32(inputShape...), s)
	s.Reset()
	return s
}

type conv2D32 struct {
	inC, outC, kh, kw, stride, pad int
	w, b                           *tensor.Tensor32
	name                           string
}

func (c *conv2D32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	if len(x.Shape) != 4 || x.Shape[1] != c.inC {
		panic(fmt.Sprintf("nn: Conv2D32 %s expects [N,%d,H,W], got %v", c.name, c.inC, x.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh := tensor.ConvOutSize(h, c.kh, c.stride, c.pad)
	ow := tensor.ConvOutSize(w, c.kw, c.stride, c.pad)
	y := s.arena.NewTensor(n, c.outC, oh, ow)
	cols := s.arena.NewTensor(oh*ow, c.inC*c.kh*c.kw)
	var padded *tensor.Tensor32
	if c.pad > 0 {
		padded = s.arena.NewTensor(c.inC, h+2*c.pad, w+2*c.pad)
	}
	return tensor.ConvForwardInto32(y, x, c.w, c.b, cols, padded, c.kh, c.kw, c.stride, c.pad)
}

type linear32 struct {
	in, out int
	w, b    *tensor.Tensor32
	name    string
}

func (l *linear32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	if len(x.Shape) != 2 || x.Shape[1] != l.in {
		panic(fmt.Sprintf("nn: Linear32 %s expects [N,%d], got %v", l.name, l.in, x.Shape))
	}
	y := s.arena.NewTensor(x.Shape[0], l.out)
	tensor.MatMulTransBInto32(y, x, l.w)
	for i := 0; i < x.Shape[0]; i++ {
		row := y.Data[i*l.out : (i+1)*l.out]
		for j := range row {
			row[j] += l.b.Data[j]
		}
	}
	return y
}

type batchNorm32 struct {
	c                      int
	mean, inv, gamma, beta []float32
	name                   string
}

func (b *batchNorm32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	if len(x.Shape) != 4 || x.Shape[1] != b.c {
		panic(fmt.Sprintf("nn: BatchNorm32 %s expects [N,%d,H,W], got %v", b.name, b.c, x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	hw := h * w
	out := s.arena.NewTensor(x.Shape...)
	for ci := 0; ci < c; ci++ {
		inv, mean := b.inv[ci], b.mean[ci]
		g, bt := b.gamma[ci], b.beta[ci]
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * hw
			src := x.Data[base : base+hw]
			dst := out.Data[base : base+hw]
			for j, v := range src {
				// Same rounding structure as the f64 oracle, in f32.
				dst[j] = g*((v-mean)*inv) + bt
			}
		}
	}
	return out
}

type relu32 struct{}

func (relu32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	out := s.arena.NewTensor(x.Shape...)
	reluSlice32(out.Data, x.Data)
	return out
}

// reluSlice32 writes max(0, src) into dst; dst may alias src.
func reluSlice32(dst, src []float32) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

type leakyReLU32 struct{ alpha float32 }

func (l leakyReLU32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	out := s.arena.NewTensor(x.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = l.alpha * v
		}
	}
	return out
}

// The transcendental activations evaluate through the float64 math library
// and narrow the result: a float32 exp/tanh approximation would save little
// (activations are a sliver of conv/matmul time) and cost drift headroom.

type sigmoid32 struct{}

func (sigmoid32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	out := s.arena.NewTensor(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return out
}

type tanh32 struct{}

func (tanh32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	out := s.arena.NewTensor(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = float32(math.Tanh(float64(v)))
	}
	return out
}

type maxPool32 struct{ k, stride int }

func (p maxPool32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: MaxPool32 expects NCHW, got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := tensor.ConvOutSize(h, p.k, p.stride, 0)
	ow := tensor.ConvOutSize(w, p.k, p.stride, 0)
	out := s.arena.NewTensor(n, c, oh, ow)
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					for ky := 0; ky < p.k; ky++ {
						iy := oy*p.stride + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < p.k; kx++ {
							ix := ox*p.stride + kx
							if ix >= w {
								continue
							}
							if v := x.Data[base+iy*w+ix]; v > best {
								best = v
							}
						}
					}
					out.Data[oi] = best
					oi++
				}
			}
		}
	}
	return out
}

type globalAvgPool32 struct{}

func (globalAvgPool32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool32 expects NCHW, got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	hw := float64(h * w)
	out := s.arena.NewTensor(n, c)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			// A float64 accumulator: a running f32 sum over h*w elements
			// is the one reduction long enough to eat the drift budget.
			sum := 0.0
			for j := 0; j < h*w; j++ {
				sum += float64(x.Data[base+j])
			}
			out.Data[ni*c+ci] = float32(sum / hw)
		}
	}
	return out
}

type upsample32 struct{ factor int }

func (u upsample32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: Upsample32 expects NCHW, got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f := u.factor
	out := s.arena.NewTensor(n, c, h*f, w*f)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			inBase := (ni*c + ci) * h * w
			outBase := (ni*c + ci) * h * f * w * f
			for iy := 0; iy < h*f; iy++ {
				srcRow := inBase + (iy/f)*w
				dstRow := outBase + iy*w*f
				for ix := 0; ix < w*f; ix++ {
					out.Data[dstRow+ix] = x.Data[srcRow+ix/f]
				}
			}
		}
	}
	return out
}

type flatten32 struct{}

func (flatten32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	n := x.Shape[0]
	return s.arena.View(x, n, x.Size()/n)
}

type reshape32 struct{ c, h, w int }

func (r reshape32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	return s.arena.View(x, x.Shape[0], r.c, r.h, r.w)
}

// additiveNoise32 keeps a pre-narrowed copy of the noise tensor. Resample
// mode redraws through the source layer's RNG (f64, identical stream to the
// oracle path) and re-narrows into the retained buffer — no allocation.
type additiveNoise32 struct {
	src   *AdditiveNoise
	noise []float32
}

func (a *additiveNoise32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: AdditiveNoise32 expects NCHW, got %v", x.Shape))
	}
	per := len(a.noise)
	if x.Size()/x.Shape[0] != per {
		panic(fmt.Sprintf("nn: AdditiveNoise32 %d noise values incompatible with input %v", per, x.Shape))
	}
	if a.src.Mode == NoiseResample {
		a.src.r.FillNormal(a.src.Noise.Value.Data, 0, a.src.Sigma)
		for i, v := range a.src.Noise.Value.Data {
			a.noise[i] = float32(v)
		}
	}
	out := s.arena.NewTensor(x.Shape...)
	for n := 0; n < x.Shape[0]; n++ {
		base := n * per
		for j := 0; j < per; j++ {
			out.Data[base+j] = x.Data[base+j] + a.noise[j]
		}
	}
	return out
}

type dropout32 struct{}

func (dropout32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 { return x }

type basicBlock32 struct {
	conv1, conv2 *conv2D32
	bn1, bn2     *batchNorm32
	shortConv    *conv2D32
	shortBN      *batchNorm32
}

func (b *basicBlock32) forwardInfer(x *tensor.Tensor32, s *Scratch32) *tensor.Tensor32 {
	main := b.conv1.forwardInfer(x, s)
	main = b.bn1.forwardInfer(main, s)
	reluSlice32(main.Data, main.Data)
	main = b.conv2.forwardInfer(main, s)
	main = b.bn2.forwardInfer(main, s)

	short := x
	if b.shortConv != nil {
		short = b.shortConv.forwardInfer(x, s)
		short = b.shortBN.forwardInfer(short, s)
	}
	if !main.SameShape(short) {
		panic(fmt.Sprintf("nn: BasicBlock32 branch shapes %v vs %v", main.Shape, short.Shape))
	}
	tensor.AddInto32(main, main, short)
	reluSlice32(main.Data, main.Data)
	return main
}
