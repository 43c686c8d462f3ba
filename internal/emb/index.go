package emb

import "math/bits"

// index finds an id's position in a first-touch list its owner keeps
// (Table.ids, RowGrads.ids) without a Go map. It is open-addressed: a
// power-of-two table of position+1 cells, 0 marking an empty one, probed
// linearly from a Fibonacci hash of the id and doubled before it passes half
// full, so a probe run stays short and a cell costs four bytes. The zero
// value is an empty index.
type index struct {
	cells []int32
	shift uint // 64 − log₂ len(cells): the hash keeps its top bits
}

// fibonacci is 2⁶⁴/φ made odd; multiplying by it spreads consecutive and
// strided ids over the top bits the home cell is taken from.
const fibonacci = 0x9e3779b97f4a7c15

// home returns the cell id's probe run starts at.
func (x *index) home(id int) int { return int(uint64(id) * fibonacci >> x.shift) }

// lookup returns id's position in ids, the list the index was built over.
// When id is absent it records id at position len(ids) and reports added:
// the caller must then append id to ids before the next call.
func (x *index) lookup(ids []int, id int) (pos int, added bool) {
	if 2*(len(ids)+1) > len(x.cells) {
		x.grow(ids)
	}
	mask := len(x.cells) - 1
	for h := x.home(id); ; h = (h + 1) & mask {
		c := x.cells[h]
		if c == 0 {
			x.cells[h] = int32(len(ids) + 1)
			return len(ids), true
		}
		if ids[c-1] == id {
			return int(c - 1), false
		}
	}
}

// grow doubles the table (to 8 cells from empty) and re-inserts ids.
func (x *index) grow(ids []int) {
	n := max(8, 2*len(x.cells))
	x.cells = make([]int32, n)
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for p, id := range ids {
		h := x.home(id)
		for x.cells[h] != 0 {
			h = (h + 1) & (n - 1)
		}
		x.cells[h] = int32(p + 1)
	}
}

// reset empties the index built over ids in O(len(ids)) probes, keeping the
// table. Position p's cell is the one cell holding p+1, found by probing from
// ids[p]'s home; cells emptied on the way do not stop the search.
func (x *index) reset(ids []int) {
	mask := len(x.cells) - 1
	for p, id := range ids {
		h := x.home(id)
		for x.cells[h] != int32(p+1) {
			h = (h + 1) & mask
		}
		x.cells[h] = 0
	}
}
