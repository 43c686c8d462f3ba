// Package persist implements the little-endian binary primitives of the one
// model checkpoint, LightGCN's (internal/models' Snapshot/Restore). The
// format is length-prefixed and versioned by its caller; this package only
// moves typed values, and every reader checks a length prefix against the
// length it expects before it allocates or reads anything sized by it.
package persist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// WriteUint64 writes one uint64.
func WriteUint64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

// ReadUint64 reads one uint64.
func ReadUint64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// WriteString writes a length-prefixed UTF-8 string.
func WriteString(w io.Writer, s string) error {
	if err := WriteUint64(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// WriteFloat64s writes a length-prefixed float64 slice.
func WriteFloat64s(w io.Writer, xs []float64) error {
	return WriteFloat64Rows(w, 1, len(xs), func(int) []float64 { return xs })
}

// WriteFloat64Rows writes a rows×cols matrix as the one length-prefixed slice
// WriteFloat64s writes for its row-major data, taking row i from row(i); a
// nil row stands for cols zeros. A store that keeps only some rows of a
// matrix writes the dense bytes without building the dense matrix.
func WriteFloat64Rows(w io.Writer, rows, cols int, row func(i int) []float64) error {
	if err := WriteUint64(w, uint64(rows*cols)); err != nil {
		return err
	}
	// Encode through a fixed buffer: a model snapshot writes matrices of
	// millions of values, and a full-size copy of each would double its peak.
	var buf [4096]byte
	n := 0
	for i := 0; i < rows; i++ {
		xs := row(i)
		for k := 0; k < cols; {
			c := min(cols-k, (len(buf)-n)/8)
			if xs == nil {
				clear(buf[n : n+8*c])
			} else {
				for j, v := range xs[k : k+c] {
					binary.LittleEndian.PutUint64(buf[n+8*j:], math.Float64bits(v))
				}
			}
			k += c
			if n += 8 * c; n == len(buf) {
				if _, err := w.Write(buf[:]); err != nil {
					return err
				}
				n = 0
			}
		}
	}
	if n > 0 {
		_, err := w.Write(buf[:n])
		return err
	}
	return nil
}

// ReadFloat64Rows reads what WriteFloat64Rows writes for a rows×cols matrix,
// handing fn each row in order; the row slice is reused between calls. A
// length prefix other than rows·cols is refused before anything is read.
func ReadFloat64Rows(r io.Reader, rows, cols int, fn func(i int, row []float64)) error {
	n, err := ReadUint64(r)
	if err != nil {
		return err
	}
	if n != uint64(rows*cols) {
		return fmt.Errorf("persist: got %d values, want %d×%d", n, rows, cols)
	}
	// Read about 4 KB of whole rows at a time, as ReadFloat64sInto does.
	per := max(1, 512/max(1, cols))
	row := make([]float64, cols)
	buf := make([]byte, 8*cols*per)
	for i := 0; i < rows; {
		b := buf[:8*cols*min(per, rows-i)]
		if _, err := io.ReadFull(r, b); err != nil {
			return err
		}
		for ; len(b) > 0; i++ {
			for k := range row {
				row[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[k*8:]))
			}
			b = b[8*cols:]
			fn(i, row)
		}
	}
	return nil
}

// ReadFloat64sInto fills dst from a length-prefixed slice of exactly len(dst)
// values. A prefix that disagrees is refused before anything is allocated; the
// values decode straight into dst through a fixed buffer, as WriteFloat64s writes.
func ReadFloat64sInto(r io.Reader, dst []float64) error {
	n, err := ReadUint64(r)
	if err != nil {
		return err
	}
	if n != uint64(len(dst)) {
		return fmt.Errorf("persist: got %d values, want %d", n, len(dst))
	}
	var buf [4096]byte
	for len(dst) > 0 {
		c := min(len(dst), len(buf)/8)
		if _, err := io.ReadFull(r, buf[:c*8]); err != nil {
			return err
		}
		for i := range dst[:c] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		dst = dst[c:]
	}
	return nil
}

// ExpectString reads a length-prefixed string and verifies it equals want
// (magic and kind tags). A length prefix other than len(want) is refused
// before anything sized by it is allocated.
func ExpectString(r io.Reader, want string) error {
	n, err := ReadUint64(r)
	if err != nil {
		return err
	}
	if n != uint64(len(want)) {
		return fmt.Errorf("persist: expected %q, got a %d-byte string", want, n)
	}
	got := make([]byte, n)
	if _, err := io.ReadFull(r, got); err != nil {
		return err
	}
	if string(got) != want {
		return fmt.Errorf("persist: expected %q, got %q", want, got)
	}
	return nil
}
