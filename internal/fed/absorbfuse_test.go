package fed

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// TestAbsorbFusedMatchesTwoPass checks the edge selection the graph rebuild
// runs over the round's upload slices against the upload record: after every
// absorb the selection's users must be the round's uploaders in ascending
// order, each user's edge row must equal the oracle rule
// (graph_oracle_test.go) over the record's latest upload for them, and the
// rebuilt adjacency must match the oracle's from-scratch build. Both edge
// rules (score threshold and top-fraction) and both the serial and parallel
// selection are exercised.
func TestAbsorbFusedMatchesTwoPass(t *testing.T) {
	const numUsers, numItems = 80, 60
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"threshold", func(c *Config) { c.GraphThreshold = 0.4 }},
		{"topfrac", func(c *Config) { c.GraphTopFrac = 0.3 }},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				sv := storeTestServer(t, numUsers, numItems, func(c *Config) {
					c.ServerModel = models.KindLightGCN
					tc.mutate(c)
				})
				s := rng.New(23).Derive("absorb-fuse")
				record := newMapStoreOracle()
				for r := 0; r < 6; r++ {
					n := 1 + s.Intn(numUsers)
					uploads := make([][]comm.Prediction, 0, n)
					uploaders := s.SampleInts(numUsers, n)
					for _, u := range uploaders {
						uploads = append(uploads, makeUpload(u, 1+s.Intn(14), numItems, s))
					}
					record.SetBatch(uploads)
					sv.absorb(uploads, workers)
					users, off, slab := sv.selectEdges(uploads, workers)

					sort.Ints(uploaders)
					if !slices.Equal(users, uploaders) {
						t.Fatalf("round %d: selected users %v != sorted uploaders %v", r, users, uploaders)
					}
					for i, u := range users {
						want := oracleEdges(sv.cfg, u, record.View(u))
						if got := slab[off[i]:off[i+1]]; !slices.Equal(got, want) {
							t.Fatalf("round %d user %d: selected edges %+v, the oracle rule over the latest upload says %+v", r, u, got, want)
						}
					}
					sv.rebuildGraph(uploads, workers)
					checkIncMatchesFull(t, fmt.Sprintf("round %d", r), sv, record, workers)
				}
			})
		}
	}
}
