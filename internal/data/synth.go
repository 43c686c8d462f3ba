package data

import (
	"fmt"
	"math"
	"sort"

	"ptffedrec/internal/rng"
)

// Profile describes a synthetic dataset calibrated to a real one. The
// generator plants two signals real recommendation data exhibits and the
// paper's experiments depend on: a long-tailed item popularity (Zipf) and a
// latent cluster structure (users preferentially interact with items from
// their own taste cluster), which is the collaborative signal the graph
// models exploit.
type Profile struct {
	Name         string
	NumUsers     int
	NumItems     int
	Interactions int     // target total interaction count
	ZipfExponent float64 // popularity skew (≈1 for real data)
	Clusters     int     // number of latent taste clusters
	ClusterBias  float64 // probability an interaction stays in-cluster
	MinPerUser   int     // floor on per-user profile length
}

// Calibrated profiles for the paper's three datasets (Table II statistics)
// plus scaled-down variants used by tests and the default benchmark runs.
var (
	// ML100K mirrors MovieLens-100K: 943 users, 1682 items, 100k
	// interactions, 6.30% density, average profile 106.
	ML100K = Profile{Name: "ml-100k", NumUsers: 943, NumItems: 1682,
		Interactions: 100000, ZipfExponent: 1.0, Clusters: 12, ClusterBias: 0.7, MinPerUser: 20}

	// Steam200K mirrors Steam-200K: 3753 users, 5134 items, 114713
	// interactions, 0.59% density, average profile 31.
	Steam200K = Profile{Name: "steam-200k", NumUsers: 3753, NumItems: 5134,
		Interactions: 114713, ZipfExponent: 1.05, Clusters: 20, ClusterBias: 0.7, MinPerUser: 5}

	// Gowalla mirrors the 20-core Gowalla check-ins: 8392 users, 10068
	// items, 391238 interactions, 0.46% density, average profile 46.
	Gowalla = Profile{Name: "gowalla", NumUsers: 8392, NumItems: 10068,
		Interactions: 391238, ZipfExponent: 1.0, Clusters: 30, ClusterBias: 0.75, MinPerUser: 20}

	// Small variants preserve the relative ordering of density and profile
	// length across the three datasets at a scale where the full experiment
	// grid runs quickly. ML100KSmall stays densest with the longest
	// profiles; SteamSmall is sparsest with the shortest.
	ML100KSmall = Profile{Name: "ml-100k-small", NumUsers: 160, NumItems: 260,
		Interactions: 2600, ZipfExponent: 1.0, Clusters: 6, ClusterBias: 0.7, MinPerUser: 8}
	SteamSmall = Profile{Name: "steam-200k-small", NumUsers: 240, NumItems: 380,
		Interactions: 1700, ZipfExponent: 1.05, Clusters: 8, ClusterBias: 0.7, MinPerUser: 4}
	GowallaSmall = Profile{Name: "gowalla-small", NumUsers: 300, NumItems: 420,
		Interactions: 2900, ZipfExponent: 1.0, Clusters: 10, ClusterBias: 0.75, MinPerUser: 5}

	// LargeScale is the cross-device scalability workload: 50k users — far
	// past the paper's datasets — with a catalogue and density in the Gowalla
	// regime. It exists to stress the parallel round engine and evaluator
	// (the scalability experiment and BenchmarkScalability), not to mirror a
	// particular public dataset.
	LargeScale = Profile{Name: "large-50k", NumUsers: 50000, NumItems: 4000,
		Interactions: 1000000, ZipfExponent: 1.05, Clusters: 40, ClusterBias: 0.7, MinPerUser: 6}

	// LargeScaleSmall is the scaled-down variant the default (small-scale)
	// scalability runs use: the same shape at a size where a full
	// worker-count sweep finishes in seconds.
	LargeScaleSmall = Profile{Name: "large-50k-small", NumUsers: 6000, NumItems: 900,
		Interactions: 90000, ZipfExponent: 1.05, Clusters: 16, ClusterBias: 0.7, MinPerUser: 5}

	// Tiny is for unit tests.
	Tiny = Profile{Name: "tiny", NumUsers: 40, NumItems: 60,
		Interactions: 360, ZipfExponent: 1.0, Clusters: 4, ClusterBias: 0.7, MinPerUser: 5}

	// Huge1M is the million-user memory workload: 1M users over an 8192-item
	// catalogue at cross-device sparsity (≈5 interactions per user). It
	// exists to prove the per-user state — the graph engine, lazy
	// client construction — stays O(bytes) per user, not O(allocations). Use the streaming generator
	// (StreamUsers / StreamSplit / StreamCSV); materialising the full
	// Dataset is deliberately avoided everywhere this profile is wired up.
	Huge1M = Profile{Name: "huge-1m", NumUsers: 1_000_000, NumItems: 8192,
		Interactions: 5_000_000, ZipfExponent: 1.05, Clusters: 64, ClusterBias: 0.7, MinPerUser: 3}
)

// ProfileByName resolves a profile from its Name field.
func ProfileByName(name string) (Profile, error) {
	for _, p := range []Profile{ML100K, Steam200K, Gowalla, ML100KSmall, SteamSmall, GowallaSmall, LargeScale, LargeScaleSmall, Tiny, Huge1M} {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("data: unknown profile %q", name)
}

// streamGen is the synthetic generator's sequential core: the prelude state
// (cluster assignments, popularity structures, per-user activity) plus the
// shared draw stream, from which per-user profiles are produced one user at
// a time in ascending order. Working memory is O(users) scalars plus
// O(profile length) per call — never the interaction set — which is what
// lets huge profiles stream to disk or into a Split without materialising a
// Dataset. Generate is a thin collector over it, so the streamed sequence is
// byte-identical to the historical all-at-once generation for the same
// (profile, seed).
type streamGen struct {
	p            Profile
	clusterItems [][]int
	clusterZipfs []*rng.Zipf
	globalZipf   *rng.Zipf
	rankToItem   []int
	act          []float64
	actSum       float64
	target       float64
	userCluster  []int
	draw         *rng.Stream
	next         int // next user id to generate
}

// newStreamGen runs the generation prelude — every draw before the first
// user's items, in the historical order.
func newStreamGen(p Profile, seed uint64) *streamGen {
	s := rng.New(seed).Derive("synth:" + p.Name)
	g := &streamGen{p: p}

	// Assign items to clusters with Zipf-distributed global popularity.
	itemCluster := make([]int, p.NumItems)
	for v := range itemCluster {
		itemCluster[v] = s.Intn(p.Clusters)
	}
	g.clusterItems = make([][]int, p.Clusters)
	for v, c := range itemCluster {
		g.clusterItems[c] = append(g.clusterItems[c], v)
	}
	// Guard against empty clusters (possible at tiny scales).
	for c := range g.clusterItems {
		if len(g.clusterItems[c]) == 0 {
			v := s.Intn(p.NumItems)
			g.clusterItems[c] = append(g.clusterItems[c], v)
		}
	}

	g.globalZipf = rng.NewZipf(s.Derive("pop"), p.NumItems, p.ZipfExponent)
	// Popularity rank permutation: rank r -> actual item id.
	g.rankToItem = s.Derive("rank").Perm(p.NumItems)

	g.clusterZipfs = make([]*rng.Zipf, p.Clusters)
	for c := range g.clusterZipfs {
		g.clusterZipfs[c] = rng.NewZipf(s.DeriveN("cpop", c), len(g.clusterItems[c]), p.ZipfExponent)
	}

	// Per-user activity: lognormal-ish heavy tail scaled to hit the target
	// interaction count, floored at MinPerUser.
	g.act = make([]float64, p.NumUsers)
	au := s.Derive("activity")
	for u := range g.act {
		g.act[u] = math.Exp(au.Normal(0, 0.9))
		g.actSum += g.act[u]
	}
	g.target = float64(p.Interactions - p.MinPerUser*p.NumUsers)
	if g.target < 0 {
		g.target = 0
	}

	g.userCluster = make([]int, p.NumUsers)
	uc := s.Derive("ucluster")
	for u := range g.userCluster {
		g.userCluster[u] = uc.Intn(p.Clusters)
	}

	g.draw = s.Derive("draw")
	return g
}

// userItems generates user u's profile into dst (reused, returned sorted
// ascending and deduplicated). Users must be requested in ascending order
// starting at 0: all users share one draw stream, so the sequence of draws —
// and with it every profile — only reproduces the all-at-once generation
// when consumed in user order.
func (g *streamGen) userItems(dst []int, u int) []int {
	if u != g.next {
		panic(fmt.Sprintf("data: streamGen user %d requested, want %d (users must stream in order)", u, g.next))
	}
	g.next++
	n := g.p.MinPerUser + int(g.target*g.act[u]/g.actSum)
	if n > g.p.NumItems {
		n = g.p.NumItems
	}
	dst = dst[:0]
	attempts := 0
	for len(dst) < n && attempts < n*40 {
		attempts++
		var v int
		if g.draw.Bernoulli(g.p.ClusterBias) {
			ci := g.clusterItems[g.userCluster[u]]
			v = ci[g.clusterZipfs[g.userCluster[u]].Draw()]
		} else {
			v = g.rankToItem[g.globalZipf.Draw()]
		}
		if containsInt(dst, v) {
			continue
		}
		dst = append(dst, v)
	}
	sort.Ints(dst)
	return dst
}

// containsInt reports whether xs holds v. Profiles are short (tens of
// items), so the linear scan beats a map — and unlike the historical
// per-user map it allocates nothing.
func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Generate synthesises a dataset matching the profile. The same seed always
// produces the same dataset.
func Generate(p Profile, seed uint64) *Dataset {
	ui := make([][]int, p.NumUsers)
	err := StreamUsers(p, seed, func(u int, items []int) error {
		ui[u] = append(make([]int, 0, len(items)), items...)
		return nil
	})
	if err != nil {
		panic(err) // callback never fails
	}
	// userItems emits sorted, deduplicated, in-range profiles — the Dataset
	// invariants — so the pairs round-trip through NewDataset is unnecessary.
	return &Dataset{Name: p.Name, NumUsers: p.NumUsers, NumItems: p.NumItems, UserItems: ui}
}
