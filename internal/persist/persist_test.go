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
		back, err := ReadFloat64s(&buf)
		if err != nil || len(back) != len(xs) {
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
	got, err := ReadString(&buf)
	if err != nil || got != "hello κόσμε" {
		t.Fatalf("ReadString = %q, %v", got, err)
	}
}

func TestIntsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := []int{0, -5, 42, 1 << 40}
	if err := WriteInts(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInts(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("ints[%d] = %d", i, got[i])
		}
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
	if _, err := ReadFloat64s(trunc); err == nil {
		t.Fatal("truncated input accepted")
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
	if _, err := ReadFloat64s(&buf); err == nil {
		t.Fatal("giant length accepted")
	}
	buf.Reset()
	if err := WriteUint64(&buf, 1<<62); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadString(&buf); err == nil {
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
