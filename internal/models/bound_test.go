package models

import (
	"math"
	"testing"

	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// checkLogitBounds scores every user of s against every item, as one block
// (the GEMM's tiles) and as one-user blocks (its per-candidate Dot), and fails
// on any logit whose magnitude exceeds its pair's bound product, unless that
// product is NaN or +Inf, which promise nothing.
func checkLogitBounds(t *testing.T, name string, s LogitBounder, numUsers, numItems int) {
	t.Helper()
	users, items := make([]int, numUsers), make([]int, numItems)
	for u := range users {
		users[u] = u
	}
	for v := range items {
		items[v] = v
	}
	bounds := make([]float64, numUsers+numItems)
	s.LogitBoundsInto(bounds, users, items)
	ub, ib := bounds[:numUsers], bounds[numUsers:]
	block := tensor.New(numUsers, numItems)
	s.ScoreUsersBlockLogitsInto(block, users, items)
	one := tensor.New(1, numItems)
	for u := range users {
		s.ScoreUsersBlockLogitsInto(one, users[u:u+1], items)
		for v := range items {
			bound := ub[u] * ib[v]
			if bound != bound || math.IsInf(bound, 1) {
				continue
			}
			for _, logit := range []float64{block.At(u, v), one.Data[v]} {
				if !(math.Abs(logit) <= bound) {
					t.Fatalf("%s: logit(%d, %d) = %g above its bound %g·%g = %g", name, u, v, logit, ub[u], ib[v], bound)
				}
			}
		}
	}
}

// boundedModels returns a dense MF, a lazy MF and a LightGCN over the
// config's universe, untrained, and the same after some training on a graph
// of every third pair.
func boundedModels(t *testing.T, cfg Config) map[string]LogitBounder {
	t.Helper()
	out := map[string]LogitBounder{}
	s := rng.New(9)
	for _, trained := range []bool{false, true} {
		for _, tc := range []struct {
			name string
			kind Kind
			lazy bool
		}{{"mf", KindMF, false}, {"lazy mf", KindMF, true}, {"lightgcn", KindLightGCN, false}} {
			c := cfg
			c.Lazy = tc.lazy
			m, err := New(tc.kind, c)
			if err != nil {
				t.Fatal(err)
			}
			name := tc.name
			if trained {
				name = "trained " + name
				g := make(edgeRows, c.NumUsers)
				var batch []Sample
				for u := 0; u < c.NumUsers; u++ {
					for v := u % 3; v < c.NumItems; v += 3 {
						g.add(u, v, 1)
						batch = append(batch, Sample{User: u, Item: v, Label: 1}, Sample{User: u, Item: s.Intn(c.NumItems)})
					}
				}
				if gm, ok := m.(GraphRecommender); ok {
					gm.SetGraph(g.engine(c.NumItems))
				}
				for range 30 {
					m.TrainBatch(batch)
				}
			}
			out[name] = m.(LogitBounder)
		}
	}
	return out
}

// TestLogitBoundsHold is the LogitBounder contract on every implementation:
// dense MF, lazy MF (+Inf, which promises nothing) and LightGCN, untrained
// and trained, at a shape that runs the 8-row and 4-row tiles and their edge
// strips; and on hand-built rows — ±0, subnormals, magnitudes near 2^±500,
// mixed signs and magnitudes, rows whose squares underflow (a 1e−160 row
// against a 1e10 row), ±Inf and NaN — set as MF's tables and as LightGCN's
// E⁰, every row against every row.
func TestLogitBoundsHold(t *testing.T) {
	cfg := Config{NumUsers: 13, NumItems: 21, Dim: 5, LR: 0.05, Layers: 2, Seed: 4}
	for name, m := range boundedModels(t, cfg) {
		checkLogitBounds(t, name, m, cfg.NumUsers, cfg.NumItems)
	}

	inf, nan := math.Inf(1), math.NaN()
	neg0 := math.Copysign(0, -1)
	rows := [][]float64{
		{0, 0, 0, 0},
		{neg0, neg0, 0, neg0},
		{5e-324, -5e-324, 1e-310, 0},
		{0x1p-1022, 0x1p-1060, -0x1p-1030, 5e-324},
		{0x1p500, -0x1p500, 0x1p499, 1},
		{0x1p-500, 0x1p-501, -0x1p-520, 0},
		{0x1p-540, -0x1p-541, 0x1p-560, 0x1p-600},
		{1e-160, 1e-160, -1e-160, 1e-160},
		{1e10, 1e10, -1e10, 1e10},
		{1e300, -1e-300, 3, -7},
		{1e308, 1e308, -1e308, 0},
		{0.3, -1.7, 2.5, -0.01},
		{inf, 1, 0, 0},
		{-inf, 0, 1, 2},
		{nan, 1, 2, 3},
	}
	n := len(rows)
	cfg = Config{NumUsers: n, NumItems: n, Dim: 4, LR: 0.05, Layers: 2, Seed: 4}
	mf := NewMF(cfg, rng.New(1))
	lg := NewLightGCN(cfg, rng.New(1))
	for i, r := range rows {
		copy(mf.users.W.Row(i), r)
		copy(mf.items.W.Row(i), r)
		copy(lg.e0.Row(i), r)
		copy(lg.e0.Row(lg.itemNode(i)), r)
	}
	lg.dirty, lg.deadStale = true, true
	checkLogitBounds(t, "hand-built mf", mf, n, n)
	checkLogitBounds(t, "hand-built lightgcn", lg, n, n)

	// The underflow case the scaling exists for: the naive norm of the 1e−160
	// row is 0, the product with the 1e10 row is 4e−150.
	tiny, big := rows[7], rows[8]
	if logit := tensor.Dot(tiny, big); logit == 0 || !(logit <= rowBound(tiny)*rowBound(big)) {
		t.Fatalf("1e-160 · 1e10 rows: logit %g, bound %g", logit, rowBound(tiny)*rowBound(big))
	}
}

// TestRowBoundIsTight keeps the bound useful: on rows of ordinary size it is
// the Euclidean norm to within a part in 10⁹, so a bound that drifted to a
// loose or infinite value fails here as well as in eval's pruning pin.
func TestRowBoundIsTight(t *testing.T) {
	s := rng.New(3)
	for dim := 1; dim <= 64; dim *= 2 {
		x := make([]float64, dim)
		for i := range x {
			x[i] = s.Normal(0, 0.3)
		}
		norm := math.Sqrt(tensor.Dot(x, x))
		if b := rowBound(x); !(b >= norm && b <= norm*(1+1e-9)+2*boundFloor) {
			t.Fatalf("dim %d: bound %v for norm %v", dim, b, norm)
		}
	}
}

// fuzzEntry maps three fuzz bytes onto an embedding entry: ±0, ±Inf, NaN, or
// a signed mantissa in [1, 2) times 2^e with e spread over [−1152, 1143], so
// entries run from 0 through the subnormals to overflow.
func fuzzEntry(kind, exp, mant byte) float64 {
	sign := 1.0
	if kind&1 == 1 {
		sign = -1
	}
	switch kind >> 1 % 16 {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.Inf(1)
	case 2:
		return math.NaN()
	}
	return sign * math.Ldexp(1+float64(mant)/256, (int(exp)-128)*9)
}

// FuzzLogitNormBound holds dense MF's bounds to its scores on rows built from
// fuzz bytes (fuzzEntry, cycled): five users and nine items, so a block runs
// the 4-row tile and the edge rows and strips, and each user as a one-row
// block runs the per-candidate Dot.
func FuzzLogitNormBound(f *testing.F) {
	f.Add(4, []byte{0x08, 0x80, 0x00, 0x09, 0x81, 0x40})
	f.Add(3, []byte{0x08, 0x44, 0x10, 0x08, 0x8a, 0x20, 0x08, 0x80, 0x00})                   // 2^-540, 2^90 and 1
	f.Add(8, []byte{0x08, 0xff, 0xff, 0x0a, 0xff, 0x01, 0x08, 0x01, 0x00})                   // overflow and underflow
	f.Add(2, []byte{0x02, 0x00, 0x00, 0x03, 0x00, 0x00, 0x04, 0x00, 0x00, 0x08, 0x80, 0x00}) // ±Inf and NaN
	f.Add(5, []byte{0x08, 0x45, 0x00, 0x08, 0x84, 0x00, 0x09, 0x45, 0x80})                   // 2^-531 (about 1e-160) against 2^36
	f.Fuzz(func(t *testing.T, dim int, b []byte) {
		if dim < 1 || dim > 8 || len(b) < 3 {
			t.Skip()
		}
		cfg := Config{NumUsers: 5, NumItems: 9, Dim: dim, LR: 0.05, Seed: 1}
		mf := NewMF(cfg, rng.New(1))
		i := 0
		for _, w := range []*tensor.Matrix{mf.users.W, mf.items.W} {
			for j := range w.Data {
				w.Data[j] = fuzzEntry(b[i%len(b)], b[(i+1)%len(b)], b[(i+2)%len(b)])
				i += 3
			}
		}
		checkLogitBounds(t, "fuzzed mf", mf, cfg.NumUsers, cfg.NumItems)
	})
}
