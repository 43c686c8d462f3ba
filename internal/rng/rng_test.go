package rng

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDeriveIndependentOfConsumption(t *testing.T) {
	a := New(1)
	a.Float64()
	a.Float64()
	b := New(1)
	if a.Derive("x").Float64() != b.Derive("x").Float64() {
		t.Fatal("Derive depends on parent consumption")
	}
}

func TestDeriveDistinctNames(t *testing.T) {
	s := New(5)
	x := s.Derive("alpha").Float64()
	y := s.Derive("beta").Float64()
	if x == y {
		t.Fatal("distinct names produced identical streams (collision)")
	}
}

func TestDeriveNDistinct(t *testing.T) {
	s := New(9)
	seen := map[float64]bool{}
	for i := 0; i < 50; i++ {
		v := s.DeriveN("client", i).Float64()
		if seen[v] {
			t.Fatalf("DeriveN collision at %d", i)
		}
		seen[v] = true
	}
}

func TestIntRangeBounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.IntRange(2, 5)
		if v < 2 || v > 5 {
			t.Fatalf("IntRange(2,5) = %d", v)
		}
	}
}

func TestFloat64RangeBounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Float64Range(0.1, 1.0)
		if v < 0.1 || v >= 1.0 {
			t.Fatalf("Float64Range = %v", v)
		}
	}
}

func TestSampleIntsDistinct(t *testing.T) {
	s := New(7)
	for _, k := range []int{0, 1, 5, 50, 99, 100, 150} {
		got := s.SampleInts(100, k)
		wantLen := k
		if k > 100 {
			wantLen = 100
		}
		if len(got) != wantLen {
			t.Fatalf("SampleInts(100,%d) len = %d", k, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= 100 {
				t.Fatalf("SampleInts out of range: %d", v)
			}
			if seen[v] {
				t.Fatalf("SampleInts duplicate: %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleIntsUniformish(t *testing.T) {
	// Every element should be selected roughly equally often.
	s := New(11)
	counts := make([]int, 20)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range s.SampleInts(20, 3) {
			counts[v]++
		}
	}
	want := float64(trials) * 3 / 20
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Fatalf("element %d drawn %d times, want ≈%v", i, c, want)
		}
	}
}

func TestSampleSlice(t *testing.T) {
	s := New(13)
	xs := []string{"a", "b", "c", "d"}
	got := SampleSlice(s, xs, 2)
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("SampleSlice -> %v", got)
	}
}

func TestLaplaceSymmetricZeroMean(t *testing.T) {
	s := New(17)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Laplace(1.0)
	}
	if math.Abs(sum/n) > 0.02 {
		t.Fatalf("Laplace mean = %v, want ≈0", sum/n)
	}
}

func TestLaplaceScale(t *testing.T) {
	// Var(Laplace(b)) = 2b². Check empirically for b = 2.
	s := New(19)
	const n = 200000
	var ss float64
	for i := 0; i < n; i++ {
		v := s.Laplace(2.0)
		ss += v * v
	}
	got := ss / n
	if math.Abs(got-8) > 0.5 {
		t.Fatalf("Laplace(2) variance = %v, want ≈8", got)
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(23)
	z := NewZipf(s, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: head %d vs mid %d", counts[0], counts[50])
	}
	// Head rank should account for roughly 1/H(100) ≈ 19% of mass.
	frac := float64(counts[0]) / 50000
	if frac < 0.12 || frac > 0.28 {
		t.Fatalf("Zipf head mass = %v, want ≈0.19", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		p := New(seed).Perm(30)
		seen := map[int]bool{}
		for _, v := range p {
			if v < 0 || v >= 30 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == 30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(29)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", float64(hits)/n)
	}
}

// TestLazySeedingMatchesEager pins the lazy generator: whichever helper makes
// a stream's first draw, it and every later draw equal those of a stream whose
// math/rand source was seeded at construction.
func TestLazySeedingMatchesEager(t *testing.T) {
	type draw func(s *Stream) any
	helpers := map[string]draw{
		"Float64":      func(s *Stream) any { return s.Float64() },
		"Float64Range": func(s *Stream) any { return s.Float64Range(-2, 3) },
		"Intn":         func(s *Stream) any { return s.Intn(1000) },
		"IntRange":     func(s *Stream) any { return s.IntRange(-5, 5) },
		"Bernoulli":    func(s *Stream) any { return s.Bernoulli(0.5) },
		"Normal":       func(s *Stream) any { return s.Normal(1, 2) },
		"Laplace":      func(s *Stream) any { return s.Laplace(0.7) },
		"Perm":         func(s *Stream) any { return s.Perm(9) },
		"Shuffle": func(s *Stream) any {
			xs := []int{0, 1, 2, 3, 4, 5, 6}
			s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			return xs
		},
		"SampleIntsDense":  func(s *Stream) any { return s.SampleInts(10, 4) },
		"SampleIntsSparse": func(s *Stream) any { return s.SampleInts(1000, 4) },
		"SampleSlice":      func(s *Stream) any { return SampleSlice(s, []string{"a", "b", "c", "d"}, 2) },
		"Zipf":             func(s *Stream) any { return NewZipf(s, 50, 1.1).Draw() },
	}
	for first, firstDraw := range helpers {
		const seed = 0xfeedface
		lazy := New(seed).DeriveN("stream", 3)
		eager := &Stream{r: rand.New(rand.NewSource(int64(lazy.seed))), seed: lazy.seed}
		if got, want := firstDraw(lazy), firstDraw(eager); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s as first draw: lazy %v, eager %v", first, got, want)
		}
		for name, next := range helpers {
			if got, want := next(lazy), next(eager); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after %s: lazy %v, eager %v", name, first, got, want)
			}
		}
		if got, want := lazy.Derive("child").Float64(), eager.Derive("child").Float64(); got != want {
			t.Fatalf("Derive after draws: lazy %v, eager %v", got, want)
		}
	}
}

// TestDeriveSeedsNothing pins what the laziness is for: a Derive chain seeds
// no 607-word state — not the parent's, not the intermediate's, not the
// leaf's — nor does a stream that has drawn fewer than lazyDraws values; the
// draw at lazyDraws swaps in a generator over the seeded source, once; and a
// draw never touches an ancestor.
func TestDeriveSeedsNothing(t *testing.T) {
	root := New(11)
	mid := root.Derive("model:mf")
	leaf := mid.DeriveN("client", 4)
	rootR, midR, leafR := root.r, mid.r, leaf.r
	for range lazyDraws {
		leaf.r.Uint64()
	}
	if leaf.r != leafR {
		t.Fatalf("the generator was swapped before the draw at lazyDraws = %d", lazyDraws)
	}
	leaf.r.Int63()
	if leaf.r == leafR {
		t.Fatal("the draw at lazyDraws did not swap in a generator over the seeded source")
	}
	if root.r != rootR || mid.r != midR {
		t.Fatal("drawing from a derived stream touched its ancestors")
	}
	seeded := leaf.r
	leaf.Intn(10)
	if leaf.r != seeded {
		t.Fatal("a later draw replaced the generator again")
	}
	// math/rand's source alone is 607 words; an undrawn chain, and a stream
	// short of lazyDraws draws, stay far below one of them.
	var sink *Stream
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		sink = New(uint64(i)).Derive("a").DeriveN("b", i)
	}
	runtime.ReadMemStats(&after)
	if perChain := (after.TotalAlloc - before.TotalAlloc) / 100; sink == nil || perChain > 512 {
		t.Fatalf("an undrawn New→Derive→DeriveN chain allocated %d B", perChain)
	}
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		sink = New(uint64(i))
		for range lazyDraws {
			sink.r.Uint64()
		}
	}
	runtime.ReadMemStats(&after)
	if perStream := (after.TotalAlloc - before.TotalAlloc) / 100; perStream > 512 {
		t.Fatalf("a stream that drew %d values allocated %d B", lazyDraws, perStream)
	}
}
