package fed

import (
	"fmt"
	"slices"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// TestAbsorbFusedMatchesTwoPass cross-checks the fused edge selection — over
// the upload slices absorb just ingested — against the reference two-pass
// path it replaces on the hot loop: after every absorb the fused
// (users, offsets, slab) triple must equal collectEdgesFor over the store's
// dirty set exactly, the subsequent incremental rebuild must select from the
// slices rather than the store, and the resulting CSR must match a
// from-scratch build. Both edge rules (score threshold and top-fraction) and
// both the serial and parallel fused paths are exercised.
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
				for r := 0; r < 6; r++ {
					n := 1 + s.Intn(numUsers)
					uploads := make([][]comm.Prediction, 0, n)
					for _, u := range s.SampleInts(numUsers, n) {
						uploads = append(uploads, makeUpload(u, 1+s.Intn(14), numItems, s))
					}
					sv.absorb(uploads, workers)
					users, fusedOff, fusedSlab := sv.fuseEdgeSelection(uploads, workers)

					dirty := sv.store.DirtyUsers(nil)
					if !slices.Equal(dirty, users) {
						t.Fatalf("round %d: fused users %v != dirty set %v", r, users, dirty)
					}
					off, slab := sv.collectEdgesFor(dirty, workers)
					if !slices.Equal(fusedOff, off) {
						t.Fatalf("round %d: fused offsets %v != two-pass %v", r, fusedOff, off)
					}
					if len(fusedSlab) != len(slab) {
						t.Fatalf("round %d: fused slab len %d != two-pass %d", r, len(fusedSlab), len(slab))
					}
					for i := range slab {
						if fusedSlab[i] != slab[i] {
							t.Fatalf("round %d: edge[%d] fused %+v != two-pass %+v", r, i, fusedSlab[i], slab[i])
						}
					}

					// The store-reading fallback fills edgeSlab; a rebuild that
					// selects from the slices leaves it alone.
					sv.edgeSlab = nil
					sv.rebuildGraph(uploads, workers)
					if sv.edgeSlab != nil {
						t.Fatalf("round %d: rebuild re-read the store instead of the upload slices", r)
					}
					checkIncMatchesFull(t, fmt.Sprintf("round %d", r), sv, workers)
				}
			})
		}
	}
}
