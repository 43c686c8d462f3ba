package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestFloat64sRoundTrip(t *testing.T) {
	f := func(xs []float64) bool {
		var buf bytes.Buffer
		if err := WriteFloat64s(&buf, xs); err != nil {
			return false
		}
		back := make([]float64, len(xs))
		if err := ReadFloat64sInto(&buf, back); err != nil || buf.Len() != 0 {
			return false
		}
		for i := range xs {
			same := back[i] == xs[i] || (math.IsNaN(back[i]) && math.IsNaN(xs[i]))
			if !same {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteString(&buf, "hello κόσμε"); err != nil {
		t.Fatal(err)
	}
	if err := ExpectString(&buf, "hello κόσμε"); err != nil || buf.Len() != 0 {
		t.Fatalf("ExpectString: %v, %d bytes left", err, buf.Len())
	}
}

func TestReadFloat64sIntoLengthCheck(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFloat64s(&buf, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 3)
	if err := ReadFloat64sInto(&buf, dst); err == nil {
		t.Fatal("length mismatch accepted")
	}

	// A corrupt prefix claiming 2²⁷ values (1 GiB) against a 32-value
	// destination is refused on the prefix alone: nothing sized by it is
	// allocated, and nothing past it is read.
	var huge bytes.Buffer
	if err := WriteUint64(&huge, 1<<27); err != nil {
		t.Fatal(err)
	}
	huge.Write(make([]byte, 64))
	dst = make([]float64, 32)
	r := bytes.NewReader(huge.Bytes())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, func() {
		r.Reset(huge.Bytes())
		if err := ReadFloat64sInto(r, dst); err == nil {
			t.Fatal("huge length prefix accepted")
		}
	})
	runtime.ReadMemStats(&after)
	// What is left is the error: its value, its message, its boxed operands.
	// AllocsPerRun makes six calls (one warm-up).
	if perCall := (after.TotalAlloc - before.TotalAlloc) / 6; allocs > 5 || perCall > 1024 {
		t.Fatalf("refusing a huge prefix allocates %.0f times, %d bytes per call; want ≤ 5 and ≤ 1 KiB", allocs, perCall)
	}
	if r.Len() != 64 {
		t.Fatalf("refusal read %d bytes past the prefix", 64-r.Len())
	}
}

func TestExpectString(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteString(&buf, "MAGIC"); err != nil {
		t.Fatal(err)
	}
	if err := ExpectString(&buf, "MAGIC"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteString(&buf, "WRONG"); err != nil {
		t.Fatal(err)
	}
	if err := ExpectString(&buf, "MAGIC"); err == nil {
		t.Fatal("wrong magic accepted")
	}
}

func TestTruncatedInputErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFloat64s(&buf, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-4])
	if err := ReadFloat64sInto(trunc, make([]float64, 3)); err == nil {
		t.Fatal("truncated input accepted")
	}
	buf.Reset()
	if err := WriteString(&buf, "MAGIC"); err != nil {
		t.Fatal(err)
	}
	if err := ExpectString(bytes.NewReader(buf.Bytes()[:buf.Len()-1]), "MAGIC"); err == nil {
		t.Fatal("truncated string accepted")
	}
	if _, err := ReadUint64(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestHugeLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteUint64(&buf, 1<<62); err != nil {
		t.Fatal(err)
	}
	if err := ReadFloat64sInto(&buf, make([]float64, 4)); err == nil {
		t.Fatal("giant length accepted")
	}
	buf.Reset()
	if err := WriteUint64(&buf, 1<<62); err != nil {
		t.Fatal(err)
	}
	if err := ExpectString(&buf, "MAGIC"); err == nil {
		t.Fatal("giant string length accepted")
	}
}

type failingWriter struct{ budget int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.budget -= len(p); w.budget < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestWriteFloat64sBytes pins the wire form across the encoder's internal
// chunking — a length prefix, then every value's bits little-endian — at
// lengths on both sides of a chunk boundary, and that a write error partway
// through a long slice is returned.
func TestWriteFloat64sBytes(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 5000} {
		xs := make([]float64, n)
		want := binary.LittleEndian.AppendUint64(nil, uint64(n))
		for i := range xs {
			xs[i] = math.Sqrt(float64(i)) - 7
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(xs[i]))
		}
		var buf bytes.Buffer
		if err := WriteFloat64s(&buf, xs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("WriteFloat64s of %d values wrote different bytes", n)
		}
	}
	if err := WriteFloat64s(&failingWriter{budget: 8 + 4096}, make([]float64, 5000)); err == nil {
		t.Fatal("a failed chunk write was not reported")
	}
}

// TestFloat64RowsMatchesDense pins the row-streamed form to the dense one:
// WriteFloat64Rows, with nil standing for a zero row, writes the bytes
// WriteFloat64s writes for the matrix laid out densely, at shapes on both
// sides of the encoder's and reader's chunk sizes, and ReadFloat64Rows hands
// back every row in order. A prefix of the wrong size is refused.
func TestFloat64RowsMatchesDense(t *testing.T) {
	for _, shape := range [][2]int{{0, 3}, {1, 1}, {7, 3}, {40, 16}, {300, 16}, {3, 700}} {
		rows, cols := shape[0], shape[1]
		dense := make([]float64, rows*cols)
		for i := range dense {
			if (i/cols)%3 != 1 { // every third row is zero, and written as nil
				dense[i] = math.Sqrt(float64(i)) - 7
			}
		}
		row := func(i int) []float64 {
			if i%3 == 1 {
				return nil
			}
			return dense[i*cols : (i+1)*cols]
		}
		var got, want bytes.Buffer
		if err := WriteFloat64Rows(&got, rows, cols, row); err != nil {
			t.Fatal(err)
		}
		if err := WriteFloat64s(&want, dense); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d×%d: WriteFloat64Rows differs from WriteFloat64s", rows, cols)
		}
		next := 0
		err := ReadFloat64Rows(bytes.NewReader(want.Bytes()), rows, cols, func(i int, r []float64) {
			if i != next || !slicesEqual(r, dense[i*cols:(i+1)*cols]) {
				t.Fatalf("%d×%d: row %d (expected %d) read back as %v", rows, cols, i, next, r)
			}
			next++
		})
		if err != nil || next != rows {
			t.Fatalf("%d×%d: read %d rows, err %v", rows, cols, next, err)
		}
		if err := ReadFloat64Rows(bytes.NewReader(want.Bytes()), rows+1, cols, func(int, []float64) {}); err == nil {
			t.Fatalf("%d×%d: a %d-row read accepted the prefix", rows, cols, rows+1)
		}
	}
}

func slicesEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}
