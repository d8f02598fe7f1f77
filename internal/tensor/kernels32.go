package tensor

import "fmt"

// Float32 serving kernels: the convolution, linear and residual-add kernels
// the compiled f32 bodies run on, with the same caller-owned-output,
// strictly serial contract as the f64 *Into kernels in kernels.go. Unlike
// those, these are free to re-block for speed (DESIGN.md §2i), and the
// convolution is shaped by the serving bodies' post-pool layers, whose
// output panels are only oh*ow = 16 or 4 wide: it gathers each output
// position's receptive field into one contiguous im2row row and runs a
// register-blocked micro-kernel that keeps eight running sums in registers.
// gc has no auto-vectorizer, so that blocking buys fewer loads, loop
// branches and bounds checks per multiply-add, not SIMD. Accumulation stays
// in float32, and every output element is still one running sum in
// ascending tap order from +0 — bit for bit what a naive loop computes; the
// drift this costs against the f64 oracle is bounded by the nn/audit
// property tests at 1e-5 relative for the seed network's depths.

// dot32 computes the inner product of equal-length slices with eight
// independent accumulators, which breaks the add dependency chain and
// shortens the rounding-error chain of a single running sum.
func dot32(x, y []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= len(x) && i+8 <= len(y); i += 8 {
		xv := x[i : i+8 : i+8]
		yv := y[i : i+8 : i+8]
		s0 += xv[0] * yv[0]
		s1 += xv[1] * yv[1]
		s2 += xv[2] * yv[2]
		s3 += xv[3] * yv[3]
		s4 += xv[4] * yv[4]
		s5 += xv[5] * yv[5]
		s6 += xv[6] * yv[6]
		s7 += xv[7] * yv[7]
	}
	s := ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7))
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// MatMulTransBInto32 computes dst = a×bᵀ for a:[m,k], b:[n,k] → [m,n] into
// the caller-owned dst, serially.
func MatMulTransBInto32(dst, a, b *Tensor32) *Tensor32 {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMulTransBInto32 requires 2-D tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransBInto32 inner dims %d vs %d", k, k2))
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto32 dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			orow[j] = dot32(arow, b.Data[j*k:(j+1)*k])
		}
	}
	return dst
}

// AddInto32 computes dst = a + b elementwise into the caller-owned dst. dst
// may alias a or b.
func AddInto32(dst, a, b *Tensor32) *Tensor32 {
	dst.checkSame(a, "AddInto32")
	dst.checkSame(b, "AddInto32")
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
	return dst
}

// padInto32 writes the [C,H,W] image src into dst:[C,H+2*pad,W+2*pad] with a
// zero border, so the im2row gather below never tests a tap for bounds.
func padInto32(dst, src []float32, c, h, w, pad int) {
	clear(dst)
	pw := w + 2*pad
	for ci := 0; ci < c; ci++ {
		for iy := 0; iy < h; iy++ {
			at := (ci*(h+2*pad)+iy+pad)*pw + pad
			copy(dst[at:at+w], src[(ci*h+iy)*w:(ci*h+iy+1)*w])
		}
	}
}

// im2rowSlice32 gathers an unpadded (or already zero-padded) [C,H,W] image
// into dst:[OH*OW, C*KH*KW]: row oy*OW+ox holds output position (oy,ox)'s
// receptive field in the weight's (ci,ky,kx) order, so a convolution output
// element is the dot product of one weight row and one im2row row, both
// contiguous. dst is fully overwritten.
func im2rowSlice32(dst, src []float32, c, h, w, kh, kw, stride, oh, ow int) {
	k := c * kh * kw
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := dst[(oy*ow+ox)*k : (oy*ow+ox+1)*k]
			q := 0
			for ci := 0; ci < c; ci++ {
				at := (ci*h+oy*stride)*w + ox*stride
				for ky := 0; ky < kh; ky++ {
					if kw == 3 {
						// The bodies' 3×3 taps: a fixed-width copy, bounds
						// checked once, measured ~2× the general loop's speed.
						tap, srow := row[q:q+3:q+3], src[at:at+3:at+3]
						tap[0], tap[1], tap[2] = srow[0], srow[1], srow[2]
					} else {
						tap := row[q : q+kw]
						for kx, v := range src[at : at+kw][:len(tap)] {
							tap[kx] = v
						}
					}
					q += kw
					at += w
				}
			}
		}
	}
}

// dotSeq32 is the sequential inner product: one running sum in ascending
// index order from +0, the order every convolution output element follows.
func dotSeq32(x, y []float32) float32 {
	var s float32
	y = y[:len(x)]
	for p, v := range x {
		s += v * y[p]
	}
	return s
}

// convRows32 computes out:[oc, hw] = weight:[oc, k] × colsᵀ for the im2row
// matrix cols:[hw, k]. Each pass of the micro-kernel holds a 4-channel ×
// 2-position block in eight scalar accumulators, loading four weights and
// two taps per step for eight multiply-adds; the re-sliced rows share one
// length, which lets the compiler drop the bounds checks. Each accumulator
// is a single running sum in ascending p from +0, so every element equals
// dotSeq32 of its weight row and im2row row bit for bit. An odd last
// position runs a 4×1 pass; the oc%4 remaining channels fall back to
// dotSeq32.
func convRows32(out, weight, cols []float32, oc, k, hw int) {
	o := 0
	for ; o+4 <= oc; o += 4 {
		w0 := weight[o*k : (o+1)*k]
		w1 := weight[(o+1)*k : (o+2)*k][:len(w0)]
		w2 := weight[(o+2)*k : (o+3)*k][:len(w0)]
		w3 := weight[(o+3)*k : (o+4)*k][:len(w0)]
		o0 := out[o*hw : (o+1)*hw]
		o1 := out[(o+1)*hw : (o+2)*hw][:len(o0)]
		o2 := out[(o+2)*hw : (o+3)*hw][:len(o0)]
		o3 := out[(o+3)*hw : (o+4)*hw][:len(o0)]
		j := 0
		for ; j+2 <= hw; j += 2 {
			r0 := cols[j*k : (j+1)*k][:len(w0)]
			r1 := cols[(j+1)*k : (j+2)*k][:len(w0)]
			var s00, s01, s10, s11, s20, s21, s30, s31 float32
			for p, a0 := range w0 {
				x0, x1 := r0[p], r1[p]
				a1, a2, a3 := w1[p], w2[p], w3[p]
				s00 += a0 * x0
				s01 += a0 * x1
				s10 += a1 * x0
				s11 += a1 * x1
				s20 += a2 * x0
				s21 += a2 * x1
				s30 += a3 * x0
				s31 += a3 * x1
			}
			o0[j], o0[j+1] = s00, s01
			o1[j], o1[j+1] = s10, s11
			o2[j], o2[j+1] = s20, s21
			o3[j], o3[j+1] = s30, s31
		}
		if j < hw {
			r := cols[j*k : (j+1)*k][:len(w0)]
			var s0, s1, s2, s3 float32
			for p, x := range r {
				s0 += w0[p] * x
				s1 += w1[p] * x
				s2 += w2[p] * x
				s3 += w3[p] * x
			}
			o0[j], o1[j], o2[j], o3[j] = s0, s1, s2, s3
		}
	}
	for ; o < oc; o++ {
		wr := weight[o*k : (o+1)*k]
		orow := out[o*hw : (o+1)*hw]
		for j := range orow {
			orow[j] = dotSeq32(wr, cols[j*k:(j+1)*k])
		}
	}
}

// ConvForwardInto32 computes the batched convolution into the caller-owned
// output y:[N,OC,OH,OW] — the f32 counterpart of ConvForwardInto, with the
// same zero-allocation, strictly serial contract. cols ([OH*OW, C*KH*KW])
// is the per-sample im2row scratch; padded ([C, H+2*pad, W+2*pad]) holds
// the zero-padded copy of one sample and may be nil when pad == 0, where
// the gather reads the sample directly. Every output element is the
// ascending-(ci,ky,kx) running sum from +0, then the bias.
func ConvForwardInto32(y, x, weight, bias, cols, padded *Tensor32, kh, kw, stride, pad int) *Tensor32 {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oc := weight.Shape[0]
	k := c * kh * kw
	if weight.Shape[1] != k {
		panic(fmt.Sprintf("tensor: ConvForwardInto32 weight %v vs c*kh*kw=%d", weight.Shape, k))
	}
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	if len(y.Shape) != 4 || y.Shape[0] != n || y.Shape[1] != oc || y.Shape[2] != oh || y.Shape[3] != ow {
		panic(fmt.Sprintf("tensor: ConvForwardInto32 y shape %v, want [%d %d %d %d]", y.Shape, n, oc, oh, ow))
	}
	hw := oh * ow
	if len(cols.Shape) != 2 || cols.Shape[0] != hw || cols.Shape[1] != k {
		panic(fmt.Sprintf("tensor: ConvForwardInto32 cols shape %v, want [%d %d]", cols.Shape, hw, k))
	}
	ph, pw := h+2*pad, w+2*pad
	if pad > 0 && (padded == nil || len(padded.Shape) != 3 || padded.Shape[0] != c || padded.Shape[1] != ph || padded.Shape[2] != pw) {
		panic(fmt.Sprintf("tensor: ConvForwardInto32 padded scratch must be [%d %d %d]", c, ph, pw))
	}
	per := c * h * w
	for i := 0; i < n; i++ {
		sample := x.Data[i*per : (i+1)*per]
		if pad > 0 {
			padInto32(padded.Data, sample, c, h, w, pad)
			sample = padded.Data
		}
		im2rowSlice32(cols.Data, sample, c, ph, pw, kh, kw, stride, oh, ow)
		dst := y.Data[i*oc*hw : (i+1)*oc*hw]
		convRows32(dst, weight.Data, cols.Data, oc, k, hw)
		if bias != nil {
			for o := 0; o < oc; o++ {
				b := bias.Data[o]
				row := dst[o*hw : (o+1)*hw]
				for j := range row {
					row[j] += b
				}
			}
		}
	}
	return y
}
