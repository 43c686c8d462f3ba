package tensor

// The three naive dense products the GEMM core (densegemm.go) replaced, kept
// verbatim as its references, and the tests that pin the core — every
// layout, the Par variants, the assembly tile and the pure Go tile — to them
// bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func matMulIntoOracle(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Zero()
	// ikj loop order: stream through b's rows for cache friendliness.
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func matMulATBOracle(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulATB %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func matMulABTOracle(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulABT %dx%d · %dx%d ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			orow[j] = Dot(arow, b.Row(j))
		}
	}
	return out
}

// fmaProbe lives in a variable so the compiler cannot fold the probe below.
var fmaProbe = [3]float64{1 + 0x1p-27, 1 - 0x1p-27, -1}

// compilerFusesMulAdd reports whether this build turns x*y + z into a fused
// multiply-add (arm64, GOAMD64=v3). The core forbids that with explicit
// conversions; the verbatim oracles above do not, so on such a build they
// compute different bits and only the tile-against-tile half of the pin runs.
func compilerFusesMulAdd() bool {
	x, y, z := fmaProbe[0], fmaProbe[1], fmaProbe[2]
	return x*y+z != float64(x*y)+z
}

// gemmOperand fills a rows×cols matrix the way a post-ReLU activation looks:
// about half exact zeros — so the zero skip the core dropped is exercised —
// a few negative zeros, the rest normal draws.
func gemmOperand(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		switch u := r.Intn(16); {
		case u < 7:
		case u == 7:
			m.Data[i] = math.Copysign(0, -1)
		default:
			m.Data[i] = r.NormFloat64()
		}
	}
	return m
}

func requireSameBits(t *testing.T, label string, want, got *Matrix) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if math.Float64bits(w) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", label, i,
				got.Data[i], math.Float64bits(got.Data[i]), w, math.Float64bits(w))
		}
	}
}

// denseGEMMOutputs runs every entry point of the core on one m×k·k×n shape
// drawn from seed: the three layouts through their allocating and Into forms
// (Into destinations pre-filled with garbage: the core overwrites) and the
// Par variants at two and three workers. The oracles' outputs come back in
// the same order.
func denseGEMMOutputs(seed int64, m, k, n int) (labels []string, oracle, got []*Matrix) {
	r := rand.New(rand.NewSource(seed))
	a, b := gemmOperand(r, m, k), gemmOperand(r, k, n) // a·b
	at := gemmOperand(r, k, m)                         // atᵀ·b
	bt := gemmOperand(r, n, k)                         // a·btᵀ
	dirty := func(rows, cols int) *Matrix {
		d := New(rows, cols)
		for i := range d.Data {
			d.Data[i] = math.NaN()
		}
		return d
	}
	add := func(label string, want, have *Matrix) {
		labels, oracle, got = append(labels, label), append(oracle, want), append(got, have)
	}

	nn := New(m, n)
	matMulIntoOracle(nn, a, b)
	atb, abt := matMulATBOracle(at, b), matMulABTOracle(a, bt)
	add("MatMul", nn, MatMul(a, b))
	add("MatMulATB", atb, MatMulATB(at, b))
	add("MatMulABT", abt, MatMulABT(a, bt))
	into := dirty(m, n)
	MatMulInto(into, a, b)
	add("MatMulInto", nn, into)
	into = dirty(m, n)
	MatMulATBInto(into, at, b)
	add("MatMulATBInto", atb, into)
	into = dirty(m, n)
	MatMulABTInto(into, a, bt, dirty(k, n))
	add("MatMulABTInto", abt, into)
	for _, workers := range []int{2, 3} {
		add(fmt.Sprintf("MatMulPar/%d", workers), nn, MatMulPar(a, b, workers))
		add(fmt.Sprintf("MatMulABTPar/%d", workers), abt, MatMulABTPar(a, bt, workers))
		add(fmt.Sprintf("MatMulATBPar/%d", workers), atb, MatMulATBPar(at, b, workers))
	}
	return labels, oracle, got
}

// requireDenseGEMMMatchesOracle checks one shape: every entry point equals
// its oracle bitwise, and — where an assembly tile is installed — computes
// the same bits again with the dispatch forced to the pure Go tile.
func requireDenseGEMMMatchesOracle(t *testing.T, seed int64, m, k, n int) {
	t.Helper()
	labels, oracle, got := denseGEMMOutputs(seed, m, k, n)
	shape := fmt.Sprintf("%dx%d·%dx%d", m, k, k, n)
	if !compilerFusesMulAdd() {
		for i, label := range labels {
			requireSameBits(t, shape+" "+label, oracle[i], got[i])
		}
	}
	if fullTile == nil {
		return
	}
	asm := fullTile
	fullTile = nil
	defer func() { fullTile = asm }()
	_, _, goTile := denseGEMMOutputs(seed, m, k, n)
	for i, label := range labels {
		requireSameBits(t, shape+" "+label+" (Go tile vs assembly tile)", got[i], goTile[i])
	}
}

// TestDenseGEMMMatchesOracle sweeps ragged shapes — empty, smaller than a
// tile, one off either side of the 4-row and 8-column tile edges and of
// parRowChunk — through every dimension.
func TestDenseGEMMMatchesOracle(t *testing.T) {
	dims := []int{0, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 257}
	seed := int64(1)
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				requireDenseGEMMMatchesOracle(t, seed, m, k, n)
				seed++
			}
		}
	}
}

// TestMatMulATBParMatchesChunkedOracle pins the one Par kernel whose
// association differs from its serial twin: past one atbChunkRows shard it
// equals the oracle run per shard and merged in shard order.
func TestMatMulATBParMatchesChunkedOracle(t *testing.T) {
	if compilerFusesMulAdd() {
		t.Skip("the compiler fuses the oracle's multiply-adds on this target")
	}
	r := rand.New(rand.NewSource(31))
	rows := 2*atbChunkRows + 77
	a, b := gemmOperand(r, rows, 13), gemmOperand(r, rows, 9)
	var want *Matrix
	for lo := 0; lo < rows; lo += atbChunkRows {
		hi := min(lo+atbChunkRows, rows)
		p := matMulATBOracle(FromSlice(hi-lo, a.Cols, a.Data[lo*a.Cols:hi*a.Cols]),
			FromSlice(hi-lo, b.Cols, b.Data[lo*b.Cols:hi*b.Cols]))
		if want == nil {
			want = p
		} else {
			want.AddInPlace(p)
		}
	}
	for _, workers := range []int{1, 2, 3} {
		requireSameBits(t, fmt.Sprintf("MatMulATBPar/%d", workers), want, MatMulATBPar(a, b, workers))
	}
}

func FuzzDenseGEMM(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(8), uint8(8))
	f.Add(int64(2), uint8(23), uint8(64), uint8(33))
	f.Add(int64(3), uint8(131), uint8(1), uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, m, k, n uint8) {
		requireDenseGEMMMatchesOracle(t, seed, int(m), int(k), int(n))
	})
}

// BenchmarkDenseGEMM times the core at the NeuMF tower's shapes for a
// 64-sample client batch: the forward products, and the ᵀ forms of the
// backward pass (xᵀ·dy for the weights, dy·Wᵀ for the input).
func BenchmarkDenseGEMM(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	for _, s := range [][3]int{{64, 64, 64}, {64, 64, 32}, {64, 32, 16}} {
		batch, in, out := s[0], s[1], s[2]
		x, w, dy := gemmOperand(r, batch, in), gemmOperand(r, in, out), gemmOperand(r, batch, out)
		z, dw, dx, wt := New(batch, out), New(in, out), New(batch, in), New(out, in)
		shape := fmt.Sprintf("%dx%d·%dx%d", batch, in, in, out)
		b.Run("NN/"+shape, func(b *testing.B) {
			for b.Loop() {
				MatMulInto(z, x, w)
			}
		})
		b.Run("ATB/"+shape, func(b *testing.B) {
			for b.Loop() {
				MatMulATBInto(dw, x, dy)
			}
		})
		b.Run("ABT/"+shape, func(b *testing.B) {
			for b.Loop() {
				MatMulABTInto(dx, dy, w, wt)
			}
		})
	}
}
