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

// TestMatMulInto32MatchesF64 bounds the f32 matmul against the f64 kernel on
// the same values: every element within 1e-5 relative of the float64 result.
func TestMatMulInto32MatchesF64(t *testing.T) {
	const m, k, n = 7, 71, 65 // off-size dims exercise the k-unroll and panel tails
	a32, b32, dst32 := New32(m, k), New32(k, n), New32(m, n)
	fill32(a32, 1)
	fill32(b32, 2)
	MatMulInto32(dst32, a32, b32)

	a64, b64 := New(m, k), New(k, n)
	for i, v := range a32.Data {
		a64.Data[i] = float64(v)
	}
	for i, v := range b32.Data {
		b64.Data[i] = float64(v)
	}
	want := MatMulInto(New(m, n), a64, b64)
	for i, v := range dst32.Data {
		if e := math.Abs(float64(v)-want.Data[i]) / math.Max(1, math.Abs(want.Data[i])); e > 1e-5 {
			t.Fatalf("element %d drifts %.3g relative (f32 %v vs f64 %v)", i, e, v, want.Data[i])
		}
	}
}

// TestMatMulInto32SequentialOrder pins the f32 matmul bit for bit against a
// plain ascending-p loop on off-size shapes (k-unroll remainders, k spanning
// several cache blocks, single-column panels): the 4-way unroll must not
// reassociate any element's sum.
func TestMatMulInto32SequentialOrder(t *testing.T) {
	for _, s := range [][3]int{{7, 71, 65}, {5, 333, 17}, {3, 13, 1}, {2, 6, 4}} {
		m, k, n := s[0], s[1], s[2]
		a, b := New32(m, k), New32(k, n)
		fill32(a, int64(m))
		fill32(b, int64(k))
		got := MatMulInto32(New32(m, n), a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want float32
				for p := 0; p < k; p++ {
					want += a.Data[i*k+p] * b.Data[p*n+j]
				}
				if g := got.Data[i*n+j]; math.Float32bits(g) != math.Float32bits(want) {
					t.Fatalf("%dx%dx%d element [%d,%d] = %v, sequential sum %v", m, k, n, i, j, g, want)
				}
			}
		}
	}
}

// benchmark shapes drawn from the serving bodies' im2col matmuls:
// weight [OC, C*KH*KW] × cols [C*KH*KW, OH*OW].
const bm, bk, bn = 8, 36, 16

func BenchmarkMatMulInto(b *testing.B) {
	a, x, dst := New(bm, bk), New(bk, bn), New(bm, bn)
	for i := range a.Data {
		a.Data[i] = float64(i%13) - 6
	}
	for i := range x.Data {
		x.Data[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, x)
	}
}

func BenchmarkMatMulInto32(b *testing.B) {
	a, x, dst := New32(bm, bk), New32(bk, bn), New32(bm, bn)
	for i := range a.Data {
		a.Data[i] = float32(i%13) - 6
	}
	for i := range x.Data {
		x.Data[i] = float32(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto32(dst, a, x)
	}
}

// The stride-2 blocks shrink the im2col panel to oh*ow = 4 (and 1 at the
// last block). Panels this narrow are where a call-per-k-row kernel loses to
// the f64 inline loop — the k-unrolled kernel must stay ahead here too.
func BenchmarkMatMulInto32TinyPanel(b *testing.B) {
	const m, k, n = 16, 144, 4
	a, x, dst := New32(m, k), New32(k, n), New32(m, n)
	fill32(a, 3)
	fill32(x, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto32(dst, a, x)
	}
}

func BenchmarkMatMulIntoTinyPanel(b *testing.B) {
	const m, k, n = 16, 144, 4
	a, x, dst := New(m, k), New(k, n), New(m, n)
	a32, x32 := New32(m, k), New32(k, n)
	fill32(a32, 3)
	fill32(x32, 4)
	for i, v := range a32.Data {
		a.Data[i] = float64(v)
	}
	for i, v := range x32.Data {
		x.Data[i] = float64(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, x)
	}
}
