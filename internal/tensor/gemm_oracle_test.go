package tensor

// The three naive dense products the GEMM core (densegemm.go) replaced and
// the 4×2 register-blocked gather kernel that gemm.go's gathered products
// replaced, kept verbatim as their references, and the tests that pin the
// core — every layout, the gathered products, and every
// tile body the host can run — to them bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// tileFunc is the signature every full tile of the core shares.
type tileFunc = func(c *float64, ldc int, a *float64, sai, sak int, b *float64, ldb, kk int)

// gemmBody is one dispatch of the dense core: the tiles gemmBlock hands its
// full tiles to, nil for the pure Go tile.
type gemmBody struct {
	name             string
	tile8x8, tile4x8 tileFunc
}

// gemmBodies lists the dispatches this host can run, the installed one
// first: both assembly tiles ("avx512"), the 4×8 tile alone ("avx2") and the
// pure Go tile ("go"). Call it with the installed tiles in place. The
// sparse kernels follow the tiles: "avx2" uninstalls their ZMM bodies and
// "go" every assembly body.
func gemmBodies() []gemmBody {
	var bodies []gemmBody
	if tile8x8 != nil {
		bodies = append(bodies, gemmBody{"avx512", tile8x8, tile4x8})
	}
	if tile4x8 != nil {
		bodies = append(bodies, gemmBody{"avx2", nil, tile4x8})
	}
	return append(bodies, gemmBody{"go", nil, nil})
}

// with runs f with gemmBlock dispatching to the body's tiles; the "go" body
// forces the elementwise and sparse kernels to their Go bodies too
// (withGoBodies), and the "avx2" body the sparse kernels to their AVX2 ones
// (withoutZMM).
func (g gemmBody) with(f func()) {
	s8, s4 := tile8x8, tile4x8
	tile8x8, tile4x8 = g.tile8x8, g.tile4x8
	defer func() { tile8x8, tile4x8 = s8, s4 }()
	switch {
	case g.tile4x8 == nil:
		withGoBodies(f)
	case g.tile8x8 == nil:
		withoutZMM(f)
	default:
		f()
	}
}

// TestGEMMDispatch logs the tiles the core installed at init and the SpMM
// bodies beside them, so a test log says which bodies the oracle tests below
// compared, and pins the rules the dispatch keeps: the 8×8 tile is installed
// only beside the 4×8 tile, and each SpMM row body with the tile of its
// instruction set.
func TestGEMMDispatch(t *testing.T) {
	name := func(f any) string {
		if v := reflect.ValueOf(f); !v.IsNil() {
			return runtime.FuncForPC(v.Pointer()).Name()
		}
		return "none (pure Go body)"
	}
	var bodies []string
	for _, body := range gemmBodies() {
		bodies = append(bodies, body.name)
	}
	t.Logf("8×8 tile: %s; 4×8 tile: %s; bodies compared: %v", name(tile8x8), name(tile4x8), bodies)
	t.Logf("SpMM rows: %s, then %s; transposed SpMM: %s, then %s; ReLU compress: %s or %s; mask compress: %s or %s",
		name(spmmWideKernel), name(spmmKernel), name(spmmTWideKernel), name(spmmTKernel),
		name(reluCSRWideKernel), name(reluCSRKernel), name(reluMaskCSRWideKernel), name(reluMaskCSRKernel))
	if tile8x8 != nil && tile4x8 == nil {
		t.Fatal("an 8×8 tile is installed without a 4×8 tile for the 4-row bands")
	}
	if (spmmWideKernel != nil) != (tile8x8 != nil) || (spmmKernel != nil) != (tile4x8 != nil) {
		t.Fatal("the SpMM bodies are not installed with the GEMM tiles of their instruction set")
	}
}

func matMulIntoOracle(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	clear(dst.Data)
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
// (Into destinations pre-filled with garbage: the core overwrites). The
// oracles' outputs come back in the same order.
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
	into := dirty(m, n)
	MatMulInto(into, a, b)
	add("MatMulInto", nn, into)
	into = dirty(m, n)
	MatMulATBInto(into, at, b)
	add("MatMulATBInto", atb, into)
	into = dirty(m, n)
	MatMulABTInto(into, a, bt, dirty(k, n))
	add("MatMulABTInto", abt, into)
	return labels, oracle, got
}

// requireDenseGEMMMatchesOracle checks one shape: every entry point equals
// its oracle bitwise, and computes the same bits again under every other
// body the host can run (gemmBodies).
func requireDenseGEMMMatchesOracle(t *testing.T, seed int64, m, k, n int) {
	t.Helper()
	labels, oracle, got := denseGEMMOutputs(seed, m, k, n)
	shape := fmt.Sprintf("%dx%d·%dx%d", m, k, k, n)
	if !compilerFusesMulAdd() {
		for i, label := range labels {
			requireSameBits(t, shape+" "+label, oracle[i], got[i])
		}
	}
	bodies := gemmBodies()
	for _, body := range bodies[1:] {
		var other []*Matrix
		body.with(func() { _, _, other = denseGEMMOutputs(seed, m, k, n) })
		for i, label := range labels {
			requireSameBits(t, fmt.Sprintf("%s %s (%s vs %s)", shape, label, body.name, bodies[0].name), got[i], other[i])
		}
	}
}

// TestDenseGEMMMatchesOracle sweeps ragged shapes — empty, smaller than a
// tile, one off either side of the 4-row and 8-column tile edges and of
// 64 — through every dimension, and the row count one off either side of two
// and three 8-row bands.
func TestDenseGEMMMatchesOracle(t *testing.T) {
	dims := []int{0, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 257}
	seed := int64(1)
	for _, m := range append(dims, 15, 16, 17, 23, 24, 25) {
		for _, k := range dims {
			for _, n := range dims {
				requireDenseGEMMMatchesOracle(t, seed, m, k, n)
				seed++
			}
		}
	}
}

// TestGEMMTileBounds runs one full tile alone through every body — m = 8
// rows (two 4×8 tiles on the avx2 body), kk = 1 and 3, A read row-major and
// transposed, ldc and ldb wider than n = 8 — over slices that end at the last
// element the tile may touch. Every element of A and B the tile must not read
// is NaN and every element of C it must not write is a sentinel: the tile
// must compute the formula's bits and leave every sentinel standing.
func TestGEMMTileBounds(t *testing.T) {
	const m, n, ldc, ldb = 8, 8, 13, 11
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	for _, body := range gemmBodies() {
		for _, kk := range []int{1, 3} {
			for _, layout := range []struct {
				name     string
				sai, sak int
			}{{"A", kk + 2, 1}, {"Aᵀ", 1, m + 3}} {
				r := rand.New(rand.NewSource(int64(kk)))
				a := make([]float64, (m-1)*layout.sai+(kk-1)*layout.sak+1)
				b := make([]float64, (kk-1)*ldb+n)
				c := make([]float64, (m-1)*ldc+n)
				for _, s := range [][]float64{a, b} {
					for i := range s {
						s[i] = math.NaN()
					}
				}
				for i := range c {
					c[i] = sentinel
				}
				for k := range kk {
					for i := range m {
						a[i*layout.sai+k*layout.sak] = r.NormFloat64()
					}
					for j := range n {
						b[k*ldb+j] = r.NormFloat64()
					}
				}
				body.with(func() { gemmBlock(c, ldc, a, layout.sai, layout.sak, b, ldb, m, n, kk) })
				for i, got := range c {
					want := sentinel
					if row, j := i/ldc, i%ldc; j < n {
						want = 0
						for k := range kk {
							want += float64(a[row*layout.sai+k*layout.sak] * b[k*ldb+j])
						}
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s, kk=%d, %s: c[%d] = %v, want %v", body.name, kk, layout.name, i, got, want)
					}
				}
			}
		}
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
// backward pass (xᵀ·dy for the weights, dy·Wᵀ for the input), on every body
// the host can run side by side (avx512, avx2, go).
func BenchmarkDenseGEMM(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	bodies := gemmBodies()
	for _, s := range [][3]int{{64, 64, 64}, {64, 64, 32}, {64, 32, 16}} {
		batch, in, out := s[0], s[1], s[2]
		x, w, dy := gemmOperand(r, batch, in), gemmOperand(r, in, out), gemmOperand(r, batch, out)
		z, dw, dx, wt := New(batch, out), New(in, out), New(batch, in), New(out, in)
		shape := fmt.Sprintf("%dx%d·%dx%d", batch, in, in, out)
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"NN", func() { MatMulInto(z, x, w) }},
			{"ATB", func() { MatMulATBInto(dw, x, dy) }},
			{"ABT", func() { MatMulABTInto(dx, dy, w, wt) }},
		} {
			for _, body := range bodies {
				b.Run(op.name+"/"+shape+"/"+body.name, func(b *testing.B) {
					body.with(func() {
						for b.Loop() {
							op.run()
						}
					})
				})
			}
		}
	}
}

// gatherMulMatOracle is the kernel GatherMulMatInto and GatherMulMatAddInto
// ran before they moved onto the core: a 4-query × 2-candidate register
// block, with Dot for the query rows past the last multiple of four.
func gatherMulMatOracle(dst *Matrix, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int, add bool) {
	d := a.Cols
	jhi := len(brows)
	i := 0
	for ; i+4 <= len(arows); i += 4 {
		// Reslicing every row to the shared inner length d lets the compiler
		// drop the per-element bounds checks (checkGatherMat guarantees
		// a.Cols == b.Cols; the reslices are free). The 4-query × 2-candidate
		// register block runs eight independent accumulator chains — enough
		// to hide FP-add latency — and loads each candidate row once per four
		// queries; none of it changes any element's k-ascending sum.
		r0 := a.Row(arows[i] + aoff)[:d]
		r1 := a.Row(arows[i+1] + aoff)[:d]
		r2 := a.Row(arows[i+2] + aoff)[:d]
		r3 := a.Row(arows[i+3] + aoff)[:d]
		d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		j := 0
		for ; j+2 <= jhi; j += 2 {
			qa := b.Row(brows[j] + boff)[:d]
			qb := b.Row(brows[j+1] + boff)[:d]
			var s0a, s1a, s2a, s3a, s0b, s1b, s2b, s3b float64
			for k := 0; k < d; k++ {
				av, bv := qa[k], qb[k]
				s0a += r0[k] * av
				s1a += r1[k] * av
				s2a += r2[k] * av
				s3a += r3[k] * av
				s0b += r0[k] * bv
				s1b += r1[k] * bv
				s2b += r2[k] * bv
				s3b += r3[k] * bv
			}
			if add {
				d0[j] += s0a
				d1[j] += s1a
				d2[j] += s2a
				d3[j] += s3a
				d0[j+1] += s0b
				d1[j+1] += s1b
				d2[j+1] += s2b
				d3[j+1] += s3b
			} else {
				d0[j], d1[j], d2[j], d3[j] = s0a, s1a, s2a, s3a
				d0[j+1], d1[j+1], d2[j+1], d3[j+1] = s0b, s1b, s2b, s3b
			}
		}
		for ; j < jhi; j++ {
			q := b.Row(brows[j] + boff)[:d]
			var s0, s1, s2, s3 float64
			for k, qv := range q {
				s0 += r0[k] * qv
				s1 += r1[k] * qv
				s2 += r2[k] * qv
				s3 += r3[k] * qv
			}
			if add {
				d0[j] += s0
				d1[j] += s1
				d2[j] += s2
				d3[j] += s3
			} else {
				d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
			}
		}
	}
	for ; i < len(arows); i++ {
		r := a.Row(arows[i] + aoff)
		d := dst.Row(i)
		for j := 0; j < jhi; j++ {
			s := Dot(r, b.Row(brows[j]+boff))
			if add {
				d[j] += s
			} else {
				d[j] = s
			}
		}
	}
}

// gatherScales are the magnitudes gatherOperand's normal draws are scaled by.
var gatherScales = [...]float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 100, 1e3, 1e4}

// gatherOperand fills a rows×cols matrix with normal draws of mixed
// magnitude, one element in 40 taken from elemSpecials (signed zeros, the
// CPU's default NaN, ±Inf, subnormals, the extremes) and one in eight an
// exact zero. The specials are rare enough that most length-70 dots stay
// finite.
func gatherOperand(r *rand.Rand, rows, cols int) *Matrix {
	sp := elemSpecials()
	m := New(rows, cols)
	for i := range m.Data {
		switch u := r.Intn(40); {
		case u == 0:
			m.Data[i] = sp[r.Intn(len(sp))]
		case u < 6:
		default:
			m.Data[i] = r.NormFloat64() * gatherScales[r.Intn(len(gatherScales))]
		}
	}
	return m
}

// gatherCase is one gathered product drawn from a seed: m query rows and n
// candidate rows of depth d, gathered with repeats and at random offsets, and
// the gatherOperand destination the Add form accumulates into.
type gatherCase struct {
	a, b         *Matrix
	arows, brows []int
	aoff, boff   int
	base         *Matrix
}

func newGatherCase(seed int64, m, n, d int) *gatherCase {
	r := rand.New(rand.NewSource(seed))
	c := &gatherCase{aoff: r.Intn(3), boff: r.Intn(3)}
	c.a = gatherOperand(r, c.aoff+1+r.Intn(24), d)
	c.b = gatherOperand(r, c.boff+1+r.Intn(24), d)
	c.arows, c.brows = make([]int, m), make([]int, n)
	for i := range c.arows {
		c.arows[i] = r.Intn(c.a.Rows - c.aoff)
	}
	for j := range c.brows {
		c.brows[j] = r.Intn(c.b.Rows - c.boff)
	}
	c.base = gatherOperand(r, m, n)
	return c
}

// outputs returns the plain form, written over a NaN-filled destination, and
// the Add form — through the oracle, or through the entry points as
// dispatched.
func (c *gatherCase) outputs(oracle bool) []*Matrix {
	plain, added := New(c.base.Rows, c.base.Cols), c.base.Clone()
	for i := range plain.Data {
		plain.Data[i] = defaultNaN()
	}
	if oracle {
		gatherMulMatOracle(plain, c.a, c.arows, c.aoff, c.b, c.brows, c.boff, false)
		gatherMulMatOracle(added, c.a, c.arows, c.aoff, c.b, c.brows, c.boff, true)
	} else {
		GatherMulMatInto(plain, c.a, c.arows, c.aoff, c.b, c.brows, c.boff)
		GatherMulMatAddInto(added, c.a, c.arows, c.aoff, c.b, c.brows, c.boff)
	}
	return []*Matrix{plain, added}
}

// requireGatherMatchesOracle checks one gathered shape: both forms equal the
// oracle bitwise, and compute the same bits again under every other body the
// host can run (gemmBodies; the go body forces AddVec to Go too).
func requireGatherMatchesOracle(t *testing.T, seed int64, m, n, d int) {
	t.Helper()
	labels := []string{"GatherMulMatInto", "GatherMulMatAddInto"}
	shape := fmt.Sprintf("seed %d: %d queries × %d candidates, depth %d", seed, m, n, d)
	c := newGatherCase(seed, m, n, d)
	got := c.outputs(false)
	if !compilerFusesMulAdd() {
		for i, want := range c.outputs(true) {
			requireSameBits(t, shape+" "+labels[i], want, got[i])
		}
	}
	bodies := gemmBodies()
	for _, body := range bodies[1:] {
		var other []*Matrix
		body.with(func() { other = c.outputs(false) })
		for i, label := range labels {
			requireSameBits(t, fmt.Sprintf("%s %s (%s vs %s)", shape, label, body.name, bodies[0].name), got[i], other[i])
		}
	}
}

// TestGatherMulMatMatchesOracle pins the gathered products to the kernel they
// replaced: every depth 0…70 across every query count 0…21 (with a candidate
// count that walks 0…70 as they vary), the full 0…21 × 0…70 grid of query
// and candidate counts — every edge of the 4-row tile and the 8-candidate
// strip — at a few depths either side of a packed panel's natural widths, and
// query panels of 23 to 131 rows, either side of three 8-row bands and past
// the 16-row block the kernel once packed per strip, against candidate counts
// ending in a short strip.
func TestGatherMulMatMatchesOracle(t *testing.T) {
	seed := int64(1)
	for d := 0; d <= 70; d++ {
		for m := 0; m <= 21; m++ {
			requireGatherMatchesOracle(t, seed, m, (d+3*m)%71, d)
			seed++
		}
	}
	for _, d := range []int{1, 5, 16, 33} {
		for m := 0; m <= 21; m++ {
			for n := 0; n <= 70; n++ {
				requireGatherMatchesOracle(t, seed, m, n, d)
				seed++
			}
		}
	}
	for _, d := range []int{1, 16, 33} {
		for _, m := range []int{23, 24, 25, 31, 32, 33, 64, 131} {
			for _, n := range []int{5, 29, 67} {
				requireGatherMatchesOracle(t, seed, m, n, d)
				seed++
			}
		}
	}
}

func FuzzGatherMulMat(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(64), uint8(16))
	f.Add(int64(2), uint8(21), uint8(70), uint8(33))
	f.Add(int64(3), uint8(3), uint8(7), uint8(1))
	f.Add(int64(4), uint8(131), uint8(29), uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, m, n, d uint8) {
		requireGatherMatchesOracle(t, seed, int(m)%132, int(n), int(d)%96)
	})
}

// TestGatherMulMatSteadyStateAllocs pins the pooled panels: once the scratch
// has grown to a shape's panels, neither form allocates — at dispersal's 16
// query rows and at evaluation's padded 131.
func TestGatherMulMatSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops scratch on purpose")
	}
	for _, m := range []int{16, 131} {
		a, b, arows, brows := randGatherFixture(3, m, 1024, 2048, 16, 0)
		dst := New(len(arows), len(brows))
		for name, f := range map[string]func(){
			"plain": func() { GatherMulMatInto(dst, a, arows, 0, b, brows, 0) },
			"add":   func() { GatherMulMatAddInto(dst, a, arows, 0, b, brows, 0) },
		} {
			if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
				t.Fatalf("m=%d %s: %v allocations per call, want 0", m, name, allocs)
			}
		}
	}
}

// BenchmarkGatherMulMat times the gathered product at dispersal's score
// window (16 users × 1024 items) at two embedding widths, on every body the
// host can run side by side (avx512, avx2, go).
func BenchmarkGatherMulMat(b *testing.B) {
	bodies := gemmBodies()
	for _, d := range []int{16, 32} {
		x, y, arows, brows := randGatherFixture(uint64(d), 16, 1024, 4096, d, 0)
		dst := New(len(arows), len(brows))
		for _, body := range bodies {
			b.Run(fmt.Sprintf("d=%d/%s", d, body.name), func(b *testing.B) {
				body.with(func() {
					GatherMulMatInto(dst, x, arows, 0, y, brows, 0) // fills the pooled panels
					for b.Loop() {
						GatherMulMatInto(dst, x, arows, 0, y, brows, 0)
					}
				})
			})
		}
	}
}
