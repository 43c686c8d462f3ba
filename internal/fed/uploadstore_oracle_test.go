package fed

// The map-of-slices upload record: the tests' account of each user's latest
// upload. The server keeps no such state — Eq. 9's exclusion set is the
// round's own upload and the graph's delta is the round's uploads — so this
// record is what the from-scratch graph oracle (graph_oracle_test.go) and the
// dispersal pins read instead. Tests fill it from the same uploads the round
// engine absorbs, before closing the round.

import (
	"sort"

	"ptffedrec/internal/comm"
)

// mapUploadStore records each user's latest non-empty upload: each entry
// aliases the round's upload slice directly.
type mapUploadStore struct {
	m map[int][]comm.Prediction
}

func newMapStoreOracle() *mapUploadStore {
	return &mapUploadStore{m: map[int][]comm.Prediction{}}
}

func (st *mapUploadStore) SetBatch(uploads [][]comm.Prediction) {
	for _, up := range uploads {
		if len(up) == 0 {
			continue
		}
		st.m[up[0].User] = up
	}
}

// SetOutcomes records the uploads of a round's responders.
func (st *mapUploadStore) SetOutcomes(outcomes []ClientOutcome) {
	for _, o := range outcomes {
		if !o.Dropped && len(o.Upload) > 0 {
			st.m[o.ID] = o.Upload
		}
	}
}

func (st *mapUploadStore) View(u int) []comm.Prediction { return st.m[u] }

func (st *mapUploadStore) Users(dst []int) []int {
	start := len(dst)
	for u := range st.m {
		dst = append(dst, u)
	}
	sort.Ints(dst[start:])
	return dst
}
