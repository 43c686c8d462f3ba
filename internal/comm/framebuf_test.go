package comm

import (
	"bytes"
	"io"
	"testing"
)

// TestFrameBufferRoundTrip pins that frames built through a FrameBuffer read
// back exactly as frames built through AppendFrame, and that AppendPredictions
// frames predictions as the bytes of Append(t, EncodePredictions(preds)).
func TestFrameBufferRoundTrip(t *testing.T) {
	preds := []Prediction{{User: 4, Item: 7, Score: 0.75}, {User: 4, Item: 9, Score: 1.0 / 3}}
	payloads := [][]byte{
		nil,
		{0x01},
		bytes.Repeat([]byte{0xAB}, 1024),
		EncodePredictions(nil),
		EncodePredictions(preds),
	}
	fb := GetFrameBuffer()
	defer PutFrameBuffer(fb)
	var want []byte
	for i, p := range payloads {
		mt := MsgType(1 + i%int(msgTypeEnd-1))
		switch i {
		case 3:
			fb.AppendPredictions(mt, nil)
		case 4:
			fb.AppendPredictions(mt, preds)
		default:
			fb.Append(mt, p)
		}
		want = AppendFrame(want, mt, p)
	}
	if !bytes.Equal(fb.Bytes(), want) {
		t.Fatal("FrameBuffer bytes differ from AppendFrame bytes")
	}
	r := bytes.NewReader(fb.Bytes())
	for i, p := range payloads {
		mt, payload, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := MsgType(1 + i%int(msgTypeEnd-1)); mt != want {
			t.Fatalf("frame %d: type %v, want %v", i, mt, want)
		}
		if !bytes.Equal(payload, p) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("trailing read: %v, want io.EOF", err)
	}
	fb.Reset()
	if n := len(fb.Bytes()); n != 0 {
		t.Fatalf("%d bytes after Reset", n)
	}
}

// TestFrameBufferSteadyStateAllocs pins the write-path pooling: once a
// buffer has grown to its working size, rebuilding a chunked upload body
// (begin, chunks framed straight from the predictions, end — the
// participant's steady state) allocates nothing, and neither does a raw
// payload's frame.
func TestFrameBufferSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in uninstrumented builds")
	}
	chunk := make([]Prediction, 512)
	for i := range chunk {
		chunk[i] = Prediction{User: 3, Item: i, Score: 0.5}
	}
	raw := bytes.Repeat([]byte{0x5A}, 512*12)
	begin := make([]byte, 32)
	build := func() {
		fb := GetFrameBuffer()
		fb.Append(MsgUploadBegin, begin)
		for i := 0; i < 8; i++ {
			fb.AppendPredictions(MsgUploadChunk, chunk)
		}
		fb.Append(MsgUploadChunk, raw)
		fb.Append(MsgUploadEnd, nil)
		PutFrameBuffer(fb)
	}
	build() // warm the pool to working size
	if n := testing.AllocsPerRun(100, build); n != 0 {
		t.Fatalf("steady-state upload body build allocates %v times per run, want 0", n)
	}
}

// TestWriteFrameSteadyStateAllocs pins that WriteFrame stages through the
// pool instead of allocating a fresh frame per call.
func TestWriteFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in uninstrumented builds")
	}
	payload := bytes.Repeat([]byte{0x33}, 4096)
	write := func() {
		if _, err := WriteFrame(io.Discard, MsgUploadChunk, payload); err != nil {
			t.Fatal(err)
		}
	}
	write() // warm the pool
	if n := testing.AllocsPerRun(100, write); n != 0 {
		t.Fatalf("steady-state WriteFrame allocates %v times per run, want 0", n)
	}
}
