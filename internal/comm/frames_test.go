package comm

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// TestFrameBufferRoundTrip pins that a sequence of frames appended into one
// buffer — each message's appender beside AppendFrame's raw payloads — equals
// the same messages framed from their payloads, and reads back frame by frame.
func TestFrameBufferRoundTrip(t *testing.T) {
	preds := []Prediction{{User: 4, Item: 7, Score: 0.75}, {User: 4, Item: 9, Score: 1.0 / 3}}
	le := binary.LittleEndian
	frames := []struct {
		mt      MsgType
		payload []byte
		build   func([]byte) []byte
	}{
		{MsgAck, nil, nil},
		{MsgError, []byte("refused"), nil},
		{MsgUploadChunk, bytes.Repeat([]byte{0xAB}, 1024), nil},
		{MsgUploadChunk, nil, func(dst []byte) []byte { return AppendUploadChunk(dst, nil) }},
		{MsgUploadChunk, EncodePredictions(preds), func(dst []byte) []byte { return AppendUploadChunk(dst, preds) }},
		{MsgJoin, le.AppendUint32(le.AppendUint32(nil, 2), 9), func(dst []byte) []byte { return AppendJoin(dst, Join{UserLo: 2, UserHi: 9}) }},
		{MsgRoundStart, le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, 5), 1), 8),
			func(dst []byte) []byte { return AppendRoundStart(dst, RoundStart{Round: 5, Users: []int{8}}) }},
		{MsgDisperse, append([]byte{4, 0, 0, 0, predictionCodec}, EncodePredictions(preds)...),
			func(dst []byte) []byte { return AppendDisperse(dst, Disperse{User: 4, Preds: preds}) }},
		{MsgRoundEnd, le.AppendUint32(nil, 5), func(dst []byte) []byte { return AppendRound(dst, MsgRoundEnd, 5) }},
		{MsgAck, le.AppendUint32(nil, 70000), func(dst []byte) []byte { return AppendRound(dst, MsgAck, 70000) }},
	}
	var buf, want []byte
	for _, f := range frames {
		if f.build != nil {
			buf = f.build(buf)
		} else {
			buf = AppendFrame(buf, f.mt, f.payload)
		}
		want = AppendFrame(want, f.mt, f.payload)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("appended frames %x differ from the payload-framed %x", buf, want)
	}
	r := bytes.NewReader(buf)
	for i, f := range frames {
		mt, payload, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if mt != f.mt {
			t.Fatalf("frame %d: type %v, want %v", i, mt, f.mt)
		}
		if !bytes.Equal(payload, f.payload) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("trailing read: %v, want io.EOF", err)
	}
}

// TestFrameBufferSteadyStateAllocs pins that the appenders size a frame
// without allocating once the caller's buffer has grown to its working size:
// rebuilding a chunked upload body (begin, chunks framed straight from the
// predictions, a raw payload's frame, end — the participant's steady state)
// and a dispersal event into a reused buffer allocates nothing.
func TestFrameBufferSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in uninstrumented builds")
	}
	chunk := make([]Prediction, 512)
	for i := range chunk {
		chunk[i] = Prediction{User: 3, Item: i, Score: 0.5}
	}
	raw := bytes.Repeat([]byte{0x5A}, 512*12)
	var buf []byte
	build := func() {
		buf = AppendUploadBegin(buf[:0], UploadBegin{Round: 1, User: 3, Count: 8 * len(chunk)})
		for i := 0; i < 8; i++ {
			buf = AppendUploadChunk(buf, chunk)
		}
		buf = AppendFrame(buf, MsgUploadChunk, raw)
		buf = AppendFrame(buf, MsgUploadEnd, nil)
		buf = AppendDisperse(buf, Disperse{User: 3, Preds: chunk})
	}
	build() // grow the buffer to working size
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
