package fed

// This file is the server's per-user upload state — each user's most recent
// D̂ᵗᵢ, whose union is the server's entire view of the interaction structure.
// flatUploadStore is a sharded arena of contiguous []comm.Prediction slabs
// with a fixed-stride per-user offset/length index, so absorb writes in place
// and per-user views are zero-alloc slices. The store is what the server
// holds, not what changed: dispersal reads a recipient's view for Eq. 9's
// exclusion, and the graph rebuild takes its delta from the round's uploads.

import (
	"math/bits"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/par"
)

// uploadStoreTargetShards sizes the flat store's user partitioning: the
// power-of-two stride is the smallest that covers the user universe in about
// this many shards. The shard count is a function of the universe alone —
// never of worker count — so shard-parallel absorbs are deterministic and a
// future multi-node round engine can distribute fixed shards.
const uploadStoreTargetShards = 64

// uploadShard is one fixed user partition: a contiguous prediction slab plus
// fixed-stride offset/length/capacity indexes (one int32 triple per user in
// the partition). A user's upload lives at slab[off : off+len] inside its
// reserved region [off : off+cap]; rewrites that fit the region are in-place
// copies, rewrites that don't abandon the region (tracked in dead) and
// append a fresh one with an eighth of slack, and the shard compacts when
// abandoned capacity exceeds the live half of the slab.
type uploadShard struct {
	lo   int // first user id of this shard
	slab []comm.Prediction
	off  []int32 // per local user: slab offset of the reserved region
	n    []int32 // per local user: live upload length (0 = never uploaded)
	cap_ []int32 // per local user: reserved region capacity
	dead int     // slab entries in abandoned regions
	live int     // slab entries in reserved regions of users with an upload
}

// set absorbs this shard's share of a round: idxs selects the batch uploads
// whose user falls in the shard. Only this shard's memory is touched, so
// shards absorb in parallel without synchronisation.
func (sh *uploadShard) set(uploads [][]comm.Prediction, idxs []int32) {
	for _, i := range idxs {
		up := uploads[i]
		u := up[0].User - sh.lo
		m := int32(len(up))
		if sh.cap_[u] >= m {
			copy(sh.slab[sh.off[u]:], up)
		} else {
			if sh.cap_[u] > 0 {
				sh.dead += int(sh.cap_[u])
				sh.live -= int(sh.cap_[u])
			}
			// Reserve an eighth of slack so per-round upload-length jitter
			// stays in place instead of abandoning a region every round.
			reserve := m + m/8
			sh.off[u] = int32(len(sh.slab))
			sh.cap_[u] = reserve
			sh.slab = append(sh.slab, up...)
			for r := m; r < reserve; r++ {
				sh.slab = append(sh.slab, comm.Prediction{})
			}
			sh.live += int(reserve)
		}
		sh.n[u] = m
	}
	if sh.dead > sh.live {
		sh.compact()
	}
}

// compact rewrites the slab with only the reserved regions of users that
// have an upload, in local-user order. Regions keep their capacity (the
// slack is live headroom, not garbage), so compaction never forces the next
// rewrite to relocate.
func (sh *uploadShard) compact() {
	packed := make([]comm.Prediction, 0, sh.live)
	for u := range sh.off {
		if sh.n[u] == 0 {
			continue
		}
		newOff := int32(len(packed))
		packed = append(packed, sh.slab[sh.off[u]:sh.off[u]+sh.cap_[u]]...)
		sh.off[u] = newOff
	}
	sh.slab = packed
	sh.dead = 0
}

// flatUploadStore shards the user universe at a fixed power-of-two stride.
type flatUploadStore struct {
	shards     []uploadShard
	strideBits uint
	users      int       // users with a stored upload
	route      [][]int32 // per-shard upload indexes, reused across rounds
}

func newFlatUploadStore(numUsers int) *flatUploadStore {
	stride := 64
	for stride*uploadStoreTargetShards < numUsers {
		stride <<= 1
	}
	nShards := (numUsers + stride - 1) / stride
	if nShards == 0 {
		nShards = 1
	}
	st := &flatUploadStore{
		shards:     make([]uploadShard, nShards),
		strideBits: uint(bits.TrailingZeros(uint(stride))),
		route:      make([][]int32, nShards),
	}
	for si := range st.shards {
		lo := si * stride
		span := stride
		if lo+span > numUsers {
			span = numUsers - lo
		}
		st.shards[si] = uploadShard{
			lo:   lo,
			off:  make([]int32, span),
			n:    make([]int32, span),
			cap_: make([]int32, span),
		}
	}
	return st
}

// SetBatch absorbs one round of uploads. Uploads come from distinct clients
// (the round engine samples without replacement), every prediction of an
// upload names its uploader (CloseRound's contract), and empty uploads are
// ignored. The final state depends only on the batch contents, never on
// workers.
func (st *flatUploadStore) SetBatch(uploads [][]comm.Prediction, workers int) {
	// Route uploads to shards sequentially (cheap: one append per upload),
	// then absorb shard-parallel — each worker touches only its shards'
	// memory, and the per-shard write order is the batch order regardless of
	// worker count.
	for si := range st.route {
		st.route[si] = st.route[si][:0]
	}
	for i, up := range uploads {
		if len(up) == 0 {
			continue
		}
		si := up[0].User >> st.strideBits
		sh := &st.shards[si]
		if sh.n[up[0].User-sh.lo] == 0 {
			st.users++
		}
		st.route[si] = append(st.route[si], int32(i))
	}
	if par.Workers(workers) <= 1 {
		// Explicit serial loop: the par.For closure below would heap-allocate
		// even when it degenerates to an inline loop, and the steady-state
		// absorb path pins zero allocations.
		for si := range st.shards {
			st.shards[si].set(uploads, st.route[si])
		}
		return
	}
	par.For(len(st.shards), par.Workers(workers), func(si int) {
		st.shards[si].set(uploads, st.route[si])
	})
}

// View returns user u's latest upload (nil if the user never uploaded). The
// slice aliases store memory and is valid until the next SetBatch.
func (st *flatUploadStore) View(u int) []comm.Prediction {
	sh := &st.shards[u>>st.strideBits]
	local := u - sh.lo
	if sh.n[local] == 0 {
		return nil
	}
	return sh.slab[sh.off[local] : sh.off[local]+sh.n[local]]
}

// Users appends every user id with a stored upload to dst in ascending order
// and returns it — the order the tests' from-scratch graph oracle reads the
// store in.
func (st *flatUploadStore) Users(dst []int) []int {
	for si := range st.shards {
		sh := &st.shards[si]
		for local, n := range sh.n {
			if n > 0 {
				dst = append(dst, sh.lo+local)
			}
		}
	}
	return dst
}

// Count returns how many users have a stored upload.
func (st *flatUploadStore) Count() int { return st.users }

// MemoryBytes reports the store's resident footprint.
func (st *flatUploadStore) MemoryBytes() int64 {
	var b int64
	for si := range st.shards {
		sh := &st.shards[si]
		b += int64(cap(sh.slab)) * comm.PredictionMemBytes
		b += int64(len(sh.off)+len(sh.n)+len(sh.cap_)) * 4
	}
	for _, r := range st.route {
		b += int64(cap(r)) * 4
	}
	return b
}
