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

// TestAbsorbFusedMatchesTwoPass checks the graph staging the rebuild runs
// over the round's upload slices against the upload record: after every
// absorb the staging must walk the round's uploaders in ascending order, and
// the rebuilt adjacency must match the oracle's fresh engine
// (graph_oracle_test.go), which stages the oracle rule over the record's
// latest upload for every user. Both the serial and the parallel commit are
// exercised.
func TestAbsorbFusedMatchesTwoPass(t *testing.T) {
	const numUsers, numItems = 80, 60
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("threshold/workers=%d", workers), func(t *testing.T) {
			sv := storeTestServer(t, numUsers, numItems, func(c *Config) {
				c.ServerModel = models.KindLightGCN
				c.GraphThreshold = 0.4
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
				sv.absorb(uploads)
				sv.rebuildGraph(uploads, workers)

				staged := make([]int, 0, len(sv.stageIdx))
				for _, i := range sv.stageIdx {
					staged = append(staged, uploads[i][0].User)
				}
				sort.Ints(uploaders)
				if !slices.Equal(staged, uploaders) {
					t.Fatalf("round %d: staged users %v != sorted uploaders %v", r, staged, uploaders)
				}
				checkIncMatchesFull(t, fmt.Sprintf("round %d", r), sv, record, workers)
			}
		})
	}
}
