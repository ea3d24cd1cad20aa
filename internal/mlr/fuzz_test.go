package mlr

import (
	"math"
	"testing"
)

// fuzzBytes reads a fuzz input front to back; past its end every read
// is zero, so any input decodes to a valid problem.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// fixed reads a value in [-scale, scale) from two bytes.
func (b *fuzzBytes) fixed(scale float64) float64 {
	u := int16(uint16(b.next()) | uint16(b.next())<<8)
	return float64(u) / 32768 * scale
}

// FuzzLossGrad holds the objective, which scores and scatters each row in
// register blocks, to the unblocked row-major one frozen as
// rowMajorLossGrad, on any collapsed training set: the loss and every
// gradient component are equal bit for bit. The input
// decodes, byte by byte, to K in [2, 12], a feature count, and rows of
// strictly increasing indices with values in [-8, 8) or exactly 1, each
// with a label and repeated 1–16 times, then θ in [-4, 4) and l2 in
// [0, 4). The gradient buffer starts as NaN, so a component the kernel
// fails to write shows.
func FuzzLossGrad(f *testing.F) {
	f.Add([]byte{0, 5, 3, 2, 1, 0, 0, 1, 7, 3})
	f.Add([]byte("\x06\x27\x1d\x09\x00\x02\x80\x11\x03\xff\x44\x12\x05\x00\x00\x30\x08"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		K := 2 + int(in.next()%11)
		D := 1 + int(in.next()%48)
		ds := &Dataset{NumClasses: K}
		for n := 1 + int(in.next()%24); n > 0; n-- {
			var x Vector
			for j := int(in.next() % 4); j < D; j += 1 + int(in.next()%6) {
				v := 1.0
				if in.next()%3 != 0 {
					v = in.fixed(8)
				}
				x = append(x, Feature{Index: j, Value: v})
			}
			y := int(in.next()) % K
			for c := 1 + int(in.next()%16); c > 0; c-- {
				ds.Add(x, y)
			}
		}
		r := collapse(ds)
		theta := make([]float64, r.features*K+K)
		for i := range theta {
			theta[i] = in.fixed(4)
		}
		l2 := float64(in.next()) / 64

		want := make([]float64, len(theta))
		wantLoss := rowMajorLossGrad(r, theta, want, l2)
		got := make([]float64, len(theta))
		for i := range got {
			got[i] = math.NaN()
		}
		gotLoss := r.lossGrad(theta, got, softmaxBuf(r), l2)
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("K=%d, %d rows: loss %v, row-major %v", K, len(r.x), gotLoss, wantLoss)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("K=%d, %d rows: grad[%d] = %v, row-major %v", K, len(r.x), i, got[i], want[i])
			}
		}
	})
}

// FuzzHessVec holds the Hessian–vector product the Newton solver's
// conjugate-gradient steps take to two references, on small collapsed
// training sets: K in [2, 16], rows of strictly increasing indices with
// values in [-2, 2) or exactly 1 (a row may have no feature), each with a
// label and repeated 1–16 times, θ and v in [-1, 1), l2 in [0, 4). The
// blocked product must equal the unblocked row-major one, rowMajorHessVec,
// within 1e-12 relative, and its vᵀHv their dot product; and it must match
// the central difference of lossGrad's gradient along v within 1e-6 of the
// product's scale.
func FuzzHessVec(f *testing.F) {
	f.Add([]byte{0, 5, 3, 2, 1, 0, 0, 1, 7, 3})
	f.Add([]byte("\x0e\x27\x1d\x09\x00\x02\x80\x11\x03\xff\x44\x12\x05\x00\x00\x30\x08\x91\x07"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		K := 2 + int(in.next()%15)
		D := 1 + int(in.next()%32)
		ds := &Dataset{NumClasses: K}
		for n := 1 + int(in.next()%16); n > 0; n-- {
			var x Vector
			for j := int(in.next() % 5); j < D; j += 1 + int(in.next()%6) {
				v := 1.0
				if in.next()%3 != 0 {
					v = in.fixed(2)
				}
				x = append(x, Feature{Index: j, Value: v})
			}
			y := int(in.next()) % K
			for c := 1 + int(in.next()%16); c > 0; c-- {
				ds.Add(x, y)
			}
		}
		r := collapse(ds)
		n := r.features*K + K
		theta, v := make([]float64, n), make([]float64, n)
		for i := range theta {
			theta[i] = in.fixed(1)
		}
		for i := range v {
			v[i] = in.fixed(1)
		}
		l2 := float64(in.next()) / 64

		grad, p := make([]float64, n), softmaxBuf(r)
		r.lossGrad(theta, grad, p, l2)
		got := make([]float64, n)
		for i := range got {
			got[i] = math.NaN()
		}
		vhv := r.hessVec(v, got, p, l2)
		want := make([]float64, n)
		rowMajorHessVec(r, v, want, p, l2)
		scale := 1.0
		for _, w := range want {
			scale = max(scale, math.Abs(w))
		}
		var dot float64
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12*scale {
				t.Fatalf("K=%d, %d rows: hv[%d] = %v, row-major %v", K, len(r.x), i, got[i], want[i])
			}
			dot += float64(v[i] * want[i])
		}
		if math.Abs(vhv-dot) > 1e-12*scale*float64(n) {
			t.Fatalf("K=%d, %d rows: vᵀHv = %v, row-major %v", K, len(r.x), vhv, dot)
		}

		// Central difference of the gradient along v.
		const h = 1e-5
		plus, minus, scratch := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range theta {
			scratch[i] = theta[i] + float64(h*v[i])
		}
		r.lossGrad(scratch, plus, softmaxBuf(r), l2)
		for i := range theta {
			scratch[i] = theta[i] - float64(h*v[i])
		}
		r.lossGrad(scratch, minus, softmaxBuf(r), l2)
		for i := range got {
			if fd := (plus[i] - minus[i]) / (2 * h); math.Abs(fd-got[i]) > 1e-6*scale {
				t.Fatalf("K=%d, %d rows: hv[%d] = %v, central difference %v", K, len(r.x), i, got[i], fd)
			}
		}
	})
}
