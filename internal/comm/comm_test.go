package comm

import (
	"math"
	"strings"
	"sync"
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

func TestMeterAccounting(t *testing.T) {
	m := NewMeter()
	m.AddUp(0, 100)
	m.AddDown(0, 50)
	m.AddUp(1, 200)
	m.AddDown(1, 50)
	m.EndRound()
	m.AddUp(0, 100)
	m.AddDown(0, 50)
	m.AddUp(1, 200)
	m.AddDown(1, 50)
	m.EndRound()
	if m.Rounds() != 2 {
		t.Fatalf("rounds = %d", m.Rounds())
	}
	// (600+200) / 2 clients / 2 rounds = 200.
	if got := m.AvgPerClientPerRound(); got != 200 {
		t.Fatalf("avg = %v", got)
	}
}

func TestMeterEmpty(t *testing.T) {
	if NewMeter().AvgPerClientPerRound() != 0 {
		t.Fatal("empty meter should average 0")
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.AddUp(c, 1)
				m.AddDown(c, 2)
			}
		}(c)
	}
	wg.Wait()
	m.EndRound()
	// (8000 up + 16000 down) / 8 clients / 1 round.
	if got := m.AvgPerClientPerRound(); got != 3000 {
		t.Fatalf("concurrent avg = %v, want 3000", got)
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
