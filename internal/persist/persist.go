// Package persist implements the little-endian binary primitives used to
// checkpoint model parameters (internal/models' Snapshot/Restore). The
// format is length-prefixed and versioned by the callers; this package only
// moves typed values.
package persist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// maxLen bounds length prefixes so corrupt input can't trigger giant
// allocations.
const maxLen = 1 << 30

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

// ReadString reads a length-prefixed string.
func ReadString(r io.Reader) (string, error) {
	n, err := ReadUint64(r)
	if err != nil {
		return "", err
	}
	if n > maxLen {
		return "", fmt.Errorf("persist: string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// WriteFloat64s writes a length-prefixed float64 slice.
func WriteFloat64s(w io.Writer, xs []float64) error {
	if err := WriteUint64(w, uint64(len(xs))); err != nil {
		return err
	}
	// Encode through a fixed buffer: a model snapshot writes matrices of
	// millions of values, and a full-size copy of each would double its peak.
	var buf [4096]byte
	for len(xs) > 0 {
		n := min(len(xs), len(buf)/8)
		for i, v := range xs[:n] {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

// ReadFloat64s reads a length-prefixed float64 slice.
func ReadFloat64s(r io.Reader) ([]float64, error) {
	n, err := ReadUint64(r)
	if err != nil {
		return nil, err
	}
	if n > maxLen/8 {
		return nil, fmt.Errorf("persist: slice length %d too large", n)
	}
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out, nil
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

// WriteInts writes a length-prefixed int slice (as int64s).
func WriteInts(w io.Writer, xs []int) error {
	if err := WriteUint64(w, uint64(len(xs))); err != nil {
		return err
	}
	for _, v := range xs {
		if err := WriteUint64(w, uint64(int64(v))); err != nil {
			return err
		}
	}
	return nil
}

// ReadInts reads a length-prefixed int slice.
func ReadInts(r io.Reader) ([]int, error) {
	n, err := ReadUint64(r)
	if err != nil {
		return nil, err
	}
	if n > maxLen/8 {
		return nil, fmt.Errorf("persist: slice length %d too large", n)
	}
	out := make([]int, n)
	for i := range out {
		v, err := ReadUint64(r)
		if err != nil {
			return nil, err
		}
		out[i] = int(int64(v))
	}
	return out, nil
}

// ExpectString reads a string and verifies it equals want (magic/kind tags).
func ExpectString(r io.Reader, want string) error {
	got, err := ReadString(r)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("persist: expected %q, got %q", want, got)
	}
	return nil
}
