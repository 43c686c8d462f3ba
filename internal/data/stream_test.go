package data

import (
	"bytes"
	"reflect"
	"testing"

	"ptffedrec/internal/rng"
)

// streamProfiles are the profiles the equality tests sweep: one tiny and one
// mid-size, covering both the empty-cluster guard path (tiny scales) and
// realistic Zipf tails.
var streamProfiles = []Profile{Tiny, ML100KSmall}

// TestStreamUsersMatchesGenerate pins the streaming contract: the per-user
// sequence StreamUsers emits is item-for-item identical to the materialised
// Generate for the same (profile, seed).
func TestStreamUsersMatchesGenerate(t *testing.T) {
	for _, p := range streamProfiles {
		d := Generate(p, 42)
		u := 0
		err := StreamUsers(p, 42, func(user int, items []int) error {
			if user != u {
				t.Fatalf("%s: callback user %d, want %d", p.Name, user, u)
			}
			if !reflect.DeepEqual(items, d.UserItems[user]) && !(len(items) == 0 && len(d.UserItems[user]) == 0) {
				t.Fatalf("%s: user %d profile differs:\n  stream:   %v\n  generate: %v",
					p.Name, user, items, d.UserItems[user])
			}
			u++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if u != p.NumUsers {
			t.Fatalf("%s: streamed %d users, want %d", p.Name, u, p.NumUsers)
		}
	}
}

// sparseProfile leaves some users without a single item (MinPerUser 0 and
// fewer interactions than users), so the split's empty-user return runs.
var sparseProfile = Profile{Name: "sparse", NumUsers: 30, NumItems: 20,
	Interactions: 20, ZipfExponent: 1.0, Clusters: 2, ClusterBias: 0.7, MinPerUser: 0}

// TestStreamSplitMatchesDatasetSplit pins the one-pass split against the
// experiment harness's recipe (Generate then Dataset.Split with the derived
// split stream): both sides must consume the split stream draw-for-draw
// identically, so the partitions are equal per user. The sweep includes
// users with no items, which stay empty, and testFrac 1, at which every user
// with two or more items keeps exactly one train item.
func TestStreamSplitMatchesDatasetSplit(t *testing.T) {
	for _, p := range append(streamProfiles, sparseProfile) {
		for _, frac := range []float64{0.2, 1} {
			d := Generate(p, 7)
			want := d.Split(rng.New(7).Derive("split:"+p.Name), frac)
			got := StreamSplit(p, 7, frac)
			if got.Name != want.Name || got.NumUsers != want.NumUsers || got.NumItems != want.NumItems {
				t.Fatalf("%s: split headers differ: %+v vs %+v", p.Name, got, want)
			}
			empty := 0
			for u := 0; u < p.NumUsers; u++ {
				if !equalIntSlices(got.Train[u], want.Train[u]) {
					t.Fatalf("%s frac %v: user %d train differs:\n  stream: %v\n  split:  %v",
						p.Name, frac, u, got.Train[u], want.Train[u])
				}
				if !equalIntSlices(got.Test[u], want.Test[u]) {
					t.Fatalf("%s frac %v: user %d test differs:\n  stream: %v\n  split:  %v",
						p.Name, frac, u, got.Test[u], want.Test[u])
				}
				n := len(d.UserItems[u])
				switch {
				case n == 0:
					empty++
					if len(got.Train[u])+len(got.Test[u]) != 0 {
						t.Fatalf("%s frac %v: empty user %d split to train=%v test=%v",
							p.Name, frac, u, got.Train[u], got.Test[u])
					}
				case frac == 1 && n >= 2 && len(got.Train[u]) != 1:
					t.Fatalf("%s frac 1: user %d with %d items keeps %d train items, want 1",
						p.Name, u, n, len(got.Train[u]))
				}
			}
			if p.Name == sparseProfile.Name && empty == 0 {
				t.Fatalf("%s: no user without items; the empty-user case went untested", p.Name)
			}
		}
	}
}

// TestStreamCSVMatchesWriteCSV pins the on-disk format byte-for-byte: a
// profile streamed to CSV must be indistinguishable from materialising the
// Dataset and writing it, and the stats gathered along the way must match
// the Dataset's own accounting.
func TestStreamCSVMatchesWriteCSV(t *testing.T) {
	for _, p := range streamProfiles {
		d := Generate(p, 99)
		var want bytes.Buffer
		if err := WriteCSV(d, &want); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		st, err := StreamCSV(&got, p, 99)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: streamed CSV differs from WriteCSV(Generate(...))", p.Name)
		}
		if ds := d.Stats(); st != ds {
			t.Fatalf("%s: stream stats %+v, dataset stats %+v", p.Name, st, ds)
		}
		if st2 := StreamStats(p, 99); st2 != st {
			t.Fatalf("%s: StreamStats %+v, StreamCSV stats %+v", p.Name, st2, st)
		}
	}
}

// TestStreamGenOutOfOrderPanics pins the sequential contract: the shared
// draw stream makes out-of-order generation silently wrong, so it must be
// loudly wrong instead.
func TestStreamGenOutOfOrderPanics(t *testing.T) {
	g := newStreamGen(Tiny, 1)
	g.userItems(nil, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("requesting user 2 after user 0 did not panic")
		}
	}()
	g.userItems(nil, 2)
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
