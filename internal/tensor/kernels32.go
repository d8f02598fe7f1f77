package tensor

import "fmt"

// Float32 twins of the allocation-free serving kernels in kernels.go. The
// structure mirrors the f64 kernels — same cache blocking, same zero-skip,
// same caller-owned-output contract, strictly serial — with the inner panels
// unrolled in the gonum generic-fallback style. gc has no auto-vectorizer, so
// the unrolling buys fewer loop branches and bounds checks, not SIMD; the
// f32 win is half the memory traffic. Accumulation stays in float32:
// the drift this costs against the f64 oracle is bounded by the nn/audit
// property tests at 1e-5 relative for the seed network's depths.

// Blocking factor for the f32 tiled matmul: float32 halves the element size,
// so a panel twice as wide as the f64 kernel's occupies the same 64 KiB of
// cache. blockK is shared with the f64 kernel.
const matmulBlockJ32 = 2 * matmulBlockJ

// axpy32 computes y[i] += a*x[i] over equal-length slices, unrolled 8 wide.
// The re-sliced 8-element windows give the compiler constant bounds, which
// lets it drop the per-element bounds checks.
func axpy32(a float32, x, y []float32) {
	i := 0
	for ; i+8 <= len(x) && i+8 <= len(y); i += 8 {
		xv := x[i : i+8 : i+8]
		yv := y[i : i+8 : i+8]
		yv[0] += a * xv[0]
		yv[1] += a * xv[1]
		yv[2] += a * xv[2]
		yv[3] += a * xv[3]
		yv[4] += a * xv[4]
		yv[5] += a * xv[5]
		yv[6] += a * xv[6]
		yv[7] += a * xv[7]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

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

// matmulRows32 computes out[i0:i1) = a[i0:i1)×b for row-major a:[m,k],
// b:[k,n], out:[m,n], tiled over (k, j) like matmulRows. Output rows are
// zeroed first.
//
// The inner kernel unrolls four k-rows of b per pass over the output panel
// instead of delegating to axpy32. The serving bodies' post-pool convolutions
// have tiny spatial panels (oh*ow of 16, 4, even 1 after the stride-2
// blocks), so a call per (i, p) pair costs more than the arithmetic it
// performs; folding four multiplies into one inline j-loop quarters the
// passes over orow and drops the call overhead entirely. Summation order per
// output element is unchanged: Go's + is left-associative, so
// o = o + a0*b0[j] + a1*b1[j] + ... accumulates in ascending-p order, bit
// for bit like the sequential loop it replaces. (o += a0*b0[j] + ... would
// not: it adds the four products to each other first.)
func matmulRows32(out, a, b []float32, i0, i1, k, n int) {
	for i := i0; i < i1; i++ {
		row := out[i*n : (i+1)*n]
		for j := range row {
			row[j] = 0
		}
	}
	for kb := 0; kb < k; kb += matmulBlockK {
		kend := min(kb+matmulBlockK, k)
		for jb := 0; jb < n; jb += matmulBlockJ32 {
			jend := min(jb+matmulBlockJ32, n)
			for i := i0; i < i1; i++ {
				arow := a[i*k : (i+1)*k]
				orow := out[i*n+jb : i*n+jend]
				p := kb
				for ; p+4 <= kend; p += 4 {
					a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
					b0 := b[p*n+jb : p*n+jend][:len(orow)]
					b1 := b[(p+1)*n+jb : (p+1)*n+jend][:len(orow)]
					b2 := b[(p+2)*n+jb : (p+2)*n+jend][:len(orow)]
					b3 := b[(p+3)*n+jb : (p+3)*n+jend][:len(orow)]
					for j := range orow {
						orow[j] = orow[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; p < kend; p++ {
					av := arow[p]
					if av == 0 {
						continue
					}
					brow := b[p*n+jb : p*n+jend]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
}

// checkMatMulShapes32 validates a 2-D matmul triple and returns (m, k, n).
func checkMatMulShapes32(dst, a, b *Tensor32, op string) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D tensors", op))
	}
	m, k = a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dims %d vs %d", op, k, k2))
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d %d]", op, dst.Shape, m, n))
	}
	return m, k, n
}

// MatMulInto32 computes dst = a×b for 2-D float32 tensors [m,k]·[k,n] →
// [m,n] into the caller-owned dst, serially, with the cache-blocked kernel.
// dst must not alias a or b.
func MatMulInto32(dst, a, b *Tensor32) *Tensor32 {
	_, k, n := checkMatMulShapes32(dst, a, b, "MatMulInto32")
	matmulRows32(dst.Data, a.Data, b.Data, 0, a.Shape[0], k, n)
	return dst
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

// MatMulTransAInto32 computes dst = aᵀ×b for a:[k,m], b:[k,n] → [m,n] into
// the caller-owned dst, serially.
func MatMulTransAInto32(dst, a, b *Tensor32) *Tensor32 {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMulTransAInto32 requires 2-D tensors")
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransAInto32 inner dims %d vs %d", k, k2))
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto32 dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for p := 0; p < k; p++ {
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := a.Data[p*m+i]
			if av == 0 {
				continue
			}
			axpy32(av, brow, dst.Data[i*n:(i+1)*n])
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

// ScaleInto32 computes dst = s*a elementwise into the caller-owned dst.
func ScaleInto32(dst, a *Tensor32, s float32) *Tensor32 {
	dst.checkSame(a, "ScaleInto32")
	for i, v := range a.Data {
		dst.Data[i] = s * v
	}
	return dst
}

// Im2ColInto32 expands one [C,H,W] image into the caller-owned patch matrix
// dst of shape [C*KH*KW, OH*OW] (see Im2Col). dst is fully overwritten,
// zero-padding included.
func Im2ColInto32(dst, x *Tensor32, kh, kw, stride, pad int) *Tensor32 {
	if len(x.Shape) != 3 {
		panic("tensor: Im2ColInto32 expects [C,H,W]")
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	if len(dst.Shape) != 2 || dst.Shape[0] != c*kh*kw || dst.Shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Im2ColInto32 dst shape %v, want [%d %d]", dst.Shape, c*kh*kw, oh*ow))
	}
	im2colSlice32(dst.Data, x.Data, c, h, w, kh, kw, stride, pad, oh, ow)
	return dst
}

// im2colSlice32 is the raw-slice im2col used by the f32 serving conv kernel;
// dst is fully overwritten.
func im2colSlice32(dst, src []float32, c, h, w, kh, kw, stride, pad, oh, ow int) {
	for i := range dst {
		dst[i] = 0
	}
	colStride := oh * ow
	for ci := 0; ci < c; ci++ {
		chanBase := ci * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				rowBase := ((ci*kh+ky)*kw + kx) * colStride
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					srcRow := chanBase + iy*w
					dstRow := rowBase + oy*ow
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= w {
							continue
						}
						dst[dstRow+ox] = src[srcRow+ix]
					}
				}
			}
		}
	}
}

// ConvForwardInto32 computes the batched convolution into the caller-owned
// output y:[N,OC,OH,OW], using cols (shape [C*KH*KW, OH*OW]) as the
// per-sample im2col scratch — the f32 twin of ConvForwardInto, with the same
// zero-allocation and one-level-of-parallelism contract.
func ConvForwardInto32(y, x, weight, bias, cols *Tensor32, kh, kw, stride, pad int) *Tensor32 {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oc := weight.Shape[0]
	if weight.Shape[1] != c*kh*kw {
		panic(fmt.Sprintf("tensor: ConvForwardInto32 weight %v vs c*kh*kw=%d", weight.Shape, c*kh*kw))
	}
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	if len(y.Shape) != 4 || y.Shape[0] != n || y.Shape[1] != oc || y.Shape[2] != oh || y.Shape[3] != ow {
		panic(fmt.Sprintf("tensor: ConvForwardInto32 y shape %v, want [%d %d %d %d]", y.Shape, n, oc, oh, ow))
	}
	if len(cols.Shape) != 2 || cols.Shape[0] != c*kh*kw || cols.Shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: ConvForwardInto32 cols shape %v, want [%d %d]", cols.Shape, c*kh*kw, oh*ow))
	}
	hw := oh * ow
	per := c * h * w
	for i := 0; i < n; i++ {
		im2colSlice32(cols.Data, x.Data[i*per:(i+1)*per], c, h, w, kh, kw, stride, pad, oh, ow)
		dst := y.Data[i*oc*hw : (i+1)*oc*hw]
		matmulRows32(dst, weight.Data, cols.Data, 0, oc, c*kh*kw, hw)
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
