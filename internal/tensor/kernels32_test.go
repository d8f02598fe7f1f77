package tensor

import (
	"math"
	"testing"
)

func fill32(t *Tensor32, seed int64) {
	s := uint64(seed)*2862933555777941757 + 3037000493
	for i := range t.Data {
		s = s*2862933555777941757 + 3037000493
		t.Data[i] = float32(int32(s>>33))/float32(1<<31) - 0.5
	}
}

// convCase32 is one convolution shape: batch, channels in/out, input size,
// kernel, stride, pad, and whether the layer carries a bias.
type convCase32 struct {
	name                   string
	n, c, oc, h, w, kh, kw int
	stride, pad            int
	bias                   bool
}

// convCases32 covers the default arch's body convolutions (post-pool 8×8
// input; stride-2 3×3 and 1×1 shortcut layers at both blocks) plus the
// remainder paths of the 4×2 micro-kernel: oc of 5 and 7, odd oh*ow, a
// 1×1 input under pad 1, a 7×9 input at stride 2, and a 2×2 unpadded kernel.
var convCases32 = []convCase32{
	{"block0.conv1", 1, 8, 16, 8, 8, 3, 3, 2, 1, false},
	{"block0.conv2", 2, 16, 16, 4, 4, 3, 3, 1, 1, false},
	{"block0.short", 3, 8, 16, 8, 8, 1, 1, 2, 0, false},
	{"block1.conv1", 1, 16, 32, 4, 4, 3, 3, 2, 1, false},
	{"block1.conv2", 2, 32, 32, 2, 2, 3, 3, 1, 1, false},
	{"block1.short", 3, 16, 32, 4, 4, 1, 1, 2, 0, false},
	{"head", 2, 3, 8, 16, 16, 3, 3, 1, 1, true},
	{"1x1-pad1", 2, 3, 5, 1, 1, 3, 3, 1, 1, true},
	{"7x9-stride2", 3, 4, 7, 7, 9, 3, 3, 2, 1, true},
	{"2x2-pad0", 1, 3, 5, 5, 6, 2, 2, 1, 0, false},
	{"odd-hw", 2, 5, 7, 3, 5, 3, 3, 1, 1, true},
}

// convInputs32 builds a case's input, weights (about 10% exact zeros, the
// zero-skip territory of earlier kernels) and optional bias.
func convInputs32(tc convCase32, seed int64) (x, wt, bias *Tensor32) {
	x = New32(tc.n, tc.c, tc.h, tc.w)
	fill32(x, seed)
	wt = New32(tc.oc, tc.c*tc.kh*tc.kw)
	fill32(wt, seed+1)
	for i := range wt.Data {
		if i%10 == 3 {
			wt.Data[i] = 0
		}
	}
	if tc.bias {
		bias = New32(tc.oc)
		fill32(bias, seed+2)
	}
	return x, wt, bias
}

// convInto32 runs ConvForwardInto32 on freshly sized scratch.
func convInto32(tc convCase32, x, wt, bias *Tensor32) *Tensor32 {
	oh := ConvOutSize(tc.h, tc.kh, tc.stride, tc.pad)
	ow := ConvOutSize(tc.w, tc.kw, tc.stride, tc.pad)
	y := New32(tc.n, tc.oc, oh, ow)
	cols := New32(oh*ow, tc.c*tc.kh*tc.kw)
	var padded *Tensor32
	if tc.pad > 0 {
		padded = New32(tc.c, tc.h+2*tc.pad, tc.w+2*tc.pad)
	}
	return ConvForwardInto32(y, x, wt, bias, cols, padded, tc.kh, tc.kw, tc.stride, tc.pad)
}

// TestConvForwardInto32Sequential pins the f32 convolution bit for bit
// against a naive six-loop reference that sums (ci,ky,kx) ascending from +0
// and then adds the bias: the im2row gather and the register-blocked
// micro-kernel (including its channel and position remainders) must not
// reassociate any element's sum. A warmed call must not allocate.
func TestConvForwardInto32Sequential(t *testing.T) {
	for i, tc := range convCases32 {
		x, wt, bias := convInputs32(tc, int64(10*i+1))
		got := convInto32(tc, x, wt, bias)
		oh, ow := got.Shape[2], got.Shape[3]
		k := tc.c * tc.kh * tc.kw
		for n := 0; n < tc.n; n++ {
			for o := 0; o < tc.oc; o++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						var want float32
						for ci := 0; ci < tc.c; ci++ {
							for ky := 0; ky < tc.kh; ky++ {
								for kx := 0; kx < tc.kw; kx++ {
									var v float32
									iy, ix := oy*tc.stride+ky-tc.pad, ox*tc.stride+kx-tc.pad
									if iy >= 0 && iy < tc.h && ix >= 0 && ix < tc.w {
										v = x.Data[((n*tc.c+ci)*tc.h+iy)*tc.w+ix]
									}
									want += wt.Data[o*k+(ci*tc.kh+ky)*tc.kw+kx] * v
								}
							}
						}
						if bias != nil {
							want += bias.Data[o]
						}
						g := got.Data[((n*tc.oc+o)*oh+oy)*ow+ox]
						if math.Float32bits(g) != math.Float32bits(want) {
							t.Fatalf("%s: y[%d,%d,%d,%d] = %v, sequential sum %v", tc.name, n, o, oy, ox, g, want)
						}
					}
				}
			}
		}
	}

	tc := convCases32[1]
	x, wt, bias := convInputs32(tc, 99)
	y := New32(tc.n, tc.oc, tc.h, tc.w)
	cols := New32(tc.h*tc.w, tc.c*tc.kh*tc.kw)
	padded := New32(tc.c, tc.h+2*tc.pad, tc.w+2*tc.pad)
	if allocs := testing.AllocsPerRun(20, func() {
		ConvForwardInto32(y, x, wt, bias, cols, padded, tc.kh, tc.kw, tc.stride, tc.pad)
	}); allocs != 0 {
		t.Errorf("ConvForwardInto32 allocates %v times per call, want 0", allocs)
	}
}

// TestConvForwardInto32MatchesF64 bounds the f32 convolution against the
// f64 oracle kernel on the same values: every element within 1e-5 relative
// of the float64 result.
func TestConvForwardInto32MatchesF64(t *testing.T) {
	for i, tc := range convCases32 {
		x32, wt32, b32 := convInputs32(tc, int64(10*i+5))
		got := convInto32(tc, x32, wt32, b32)

		var b64 *Tensor
		if b32 != nil {
			b64 = Widen64(b32)
		}
		oh, ow := got.Shape[2], got.Shape[3]
		want := ConvForwardInto(New(tc.n, tc.oc, oh, ow), Widen64(x32), Widen64(wt32), b64,
			New(tc.c*tc.kh*tc.kw, oh*ow), tc.kh, tc.kw, tc.stride, tc.pad)
		for j, v := range got.Data {
			if e := math.Abs(float64(v)-want.Data[j]) / math.Max(1, math.Abs(want.Data[j])); e > 1e-5 {
				t.Fatalf("%s: element %d drifts %.3g relative (f32 %v vs f64 %v)", tc.name, j, e, v, want.Data[j])
			}
		}
	}
}

// benchConv32 times one warmed ConvForwardInto32 call on a single image.
func benchConv32(b *testing.B, tc convCase32) {
	x, wt, bias := convInputs32(tc, 3)
	oh := ConvOutSize(tc.h, tc.kh, tc.stride, tc.pad)
	ow := ConvOutSize(tc.w, tc.kw, tc.stride, tc.pad)
	y := New32(tc.n, tc.oc, oh, ow)
	cols := New32(oh*ow, tc.c*tc.kh*tc.kw)
	padded := New32(tc.c, tc.h+2*tc.pad, tc.w+2*tc.pad)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvForwardInto32(y, x, wt, bias, cols, padded, tc.kh, tc.kw, tc.stride, tc.pad)
	}
}

// benchConv64 is benchConv32 on the f64 oracle kernel, for side-by-side
// comparison on the same shape.
func benchConv64(b *testing.B, tc convCase32) {
	x32, wt32, _ := convInputs32(tc, 3)
	x, wt := Widen64(x32), Widen64(wt32)
	oh := ConvOutSize(tc.h, tc.kh, tc.stride, tc.pad)
	ow := ConvOutSize(tc.w, tc.kw, tc.stride, tc.pad)
	y := New(tc.n, tc.oc, oh, ow)
	cols := New(tc.c*tc.kh*tc.kw, oh*ow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvForwardInto(y, x, wt, nil, cols, tc.kh, tc.kw, tc.stride, tc.pad)
	}
}

// The first block's second conv: weight rows of k = 144 over a 16-wide
// output panel.
var benchConvCase = convCase32{"block0.conv2", 1, 16, 16, 4, 4, 3, 3, 1, 1, false}

// After the last stride-2 block the output panel is oh*ow = 4: the shape
// where per-row loop overhead used to dominate the f32 kernel.
var benchConvTinyPanel = convCase32{"block1.conv2", 1, 32, 32, 2, 2, 3, 3, 1, 1, false}

func BenchmarkConvForwardInto(b *testing.B)            { benchConv64(b, benchConvCase) }
func BenchmarkConvForwardInto32(b *testing.B)          { benchConv32(b, benchConvCase) }
func BenchmarkConvForwardIntoTinyPanel(b *testing.B)   { benchConv64(b, benchConvTinyPanel) }
func BenchmarkConvForwardInto32TinyPanel(b *testing.B) { benchConv32(b, benchConvTinyPanel) }
