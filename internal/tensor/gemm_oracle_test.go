package tensor

// The three naive dense products the GEMM core (densegemm.go) replaced and
// the 4×2 register-blocked gather kernel that gemm.go's gathered products
// replaced, kept verbatim as their references, and the tests that pin the
// core — every layout, the Par variants, the gathered products, the assembly
// tile and the pure Go tile — to them bit for bit.

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
// oracle bitwise, and — where assembly is installed — compute the same bits
// again with the tile and AddVec forced to their pure Go bodies.
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
	if fullTile == nil {
		return
	}
	asm := fullTile
	fullTile = nil
	defer func() { fullTile = asm }()
	var goTile []*Matrix
	withGoBodies(func() { goTile = c.outputs(false) })
	for i, label := range labels {
		requireSameBits(t, shape+" "+label+" (Go tile vs assembly tile)", got[i], goTile[i])
	}
}

// TestGatherMulMatMatchesOracle pins the gathered products to the kernel they
// replaced: every depth 0…70 across every query count 0…21 (with a candidate
// count that walks 0…70 as they vary), and the full 0…21 × 0…70 grid of
// query and candidate counts — every edge of the 16-row block, the 4-row tile
// and the 8-candidate strip — at a few depths either side of a packed panel's
// natural widths.
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
}

func FuzzGatherMulMat(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(64), uint8(16))
	f.Add(int64(2), uint8(21), uint8(70), uint8(33))
	f.Add(int64(3), uint8(3), uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, m, n, d uint8) {
		requireGatherMatchesOracle(t, seed, int(m)%40, int(n), int(d)%96)
	})
}

// TestGatherMulMatSteadyStateAllocs pins the pooled panels: once a depth's
// scratch exists, neither form allocates.
func TestGatherMulMatSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops scratch on purpose")
	}
	a, b, arows, brows := randGatherFixture(3, 16, 1024, 2048, 16, 0)
	dst := New(len(arows), len(brows))
	for name, f := range map[string]func(){
		"plain": func() { GatherMulMatInto(dst, a, arows, 0, b, brows, 0) },
		"add":   func() { GatherMulMatAddInto(dst, a, arows, 0, b, brows, 0) },
	} {
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Fatalf("%s: %v allocations per call, want 0", name, allocs)
		}
	}
}

// BenchmarkGatherMulMat times the gathered product at the evaluator's score
// window (16 users × 1024 items) at two embedding widths, on the assembly
// tile where one is installed and on the pure Go tile.
func BenchmarkGatherMulMat(b *testing.B) {
	for _, d := range []int{16, 32} {
		x, y, arows, brows := randGatherFixture(uint64(d), 16, 1024, 4096, d, 0)
		dst := New(len(arows), len(brows))
		tiles := []struct {
			name string
			tile func(c *float64, ldc int, a *float64, sai, sak int, b *float64, ldb, kk int)
		}{{"asm", fullTile}, {"go", nil}}
		for _, tl := range tiles {
			if tl.name == "asm" && tl.tile == nil {
				continue
			}
			b.Run(fmt.Sprintf("d=%d/%s", d, tl.name), func(b *testing.B) {
				saved := fullTile
				fullTile = tl.tile
				defer func() { fullTile = saved }()
				GatherMulMatInto(dst, x, arows, 0, y, brows, 0) // fills the pooled panels
				for b.Loop() {
					GatherMulMatInto(dst, x, arows, 0, y, brows, 0)
				}
			})
		}
	}
}
