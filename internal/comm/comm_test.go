package comm

import (
	"math"
	"strings"
	"testing"
)

func TestPredictionRoundTrip(t *testing.T) {
	in := []Prediction{
		{User: 0, Item: 0, Score: 0},
		{User: 12, Item: 9999, Score: 0.73},
		{User: 1 << 20, Item: 3, Score: 1},
	}
	buf := EncodePredictions(in)
	if len(buf) != len(in)*PredictionWireSize {
		t.Fatalf("encoded %d bytes, want %d", len(buf), len(in)*PredictionWireSize)
	}
	out, err := DecodePredictions(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i].User != in[i].User || out[i].Item != in[i].Item {
			t.Fatalf("ids changed: %+v vs %+v", out[i], in[i])
		}
		if math.Abs(out[i].Score-in[i].Score) > 1e-6 {
			t.Fatalf("score drifted beyond float32: %v vs %v", out[i].Score, in[i].Score)
		}
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	if _, err := DecodePredictions(make([]byte, 13)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestDecodeEmpty(t *testing.T) {
	out, err := DecodePredictions(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty decode: %v %v", out, err)
	}
}

func TestFloat32BlockSize(t *testing.T) {
	if Float32BlockSize(100) != 400 {
		t.Fatal("Float32BlockSize wrong")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{512, "512B"},
		{3.02 * 1024, "3.02KB"},
		{7.32 * 1024 * 1024, "7.32MB"},
		{2.5 * 1024 * 1024 * 1024, "2.50GB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Fatalf("FormatBytes(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if !strings.HasSuffix(FormatBytes(0), "B") {
		t.Fatal("zero bytes format")
	}
}
