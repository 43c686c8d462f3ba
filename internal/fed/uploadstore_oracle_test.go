package fed

// The map-of-slices upload store, moved here verbatim from uploadstore.go when
// the flat sharded arena became the only production store. It is the
// reference oracle for the per-operation store comparison
// (TestFlatUploadStoreMatchesMap, TestUploadStoreInvariance) and must not be
// edited to follow the flat store. Only the constructor's name changed in the
// move; its dirty-set twins were deleted with the flat store's dirty set.

import (
	"sort"

	"ptffedrec/internal/comm"
)

// mapUploadStore is the historical map-of-slices state, kept as the
// baseline: each entry aliases the round's upload slice directly.
type mapUploadStore struct {
	m map[int][]comm.Prediction
}

func newMapStoreOracle() *mapUploadStore {
	return &mapUploadStore{m: map[int][]comm.Prediction{}}
}

func (st *mapUploadStore) SetBatch(uploads [][]comm.Prediction, workers int) {
	for _, up := range uploads {
		if len(up) == 0 {
			continue
		}
		st.m[up[0].User] = up
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

func (st *mapUploadStore) Count() int { return len(st.m) }

// mapEntryOverheadBytes approximates one map entry's bookkeeping: the
// int key, the slice header, and the runtime's per-entry bucket share.
const mapEntryOverheadBytes = 8 + 24 + 16

func (st *mapUploadStore) MemoryBytes() int64 {
	b := int64(len(st.m)) * mapEntryOverheadBytes
	for _, up := range st.m {
		b += int64(cap(up)) * comm.PredictionMemBytes
	}
	return b
}
