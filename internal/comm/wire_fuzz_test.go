package comm

// Fuzz suite for the wire decoders: adversarial and truncated buffers must
// come back as errors — never panics — and every valid encoding must
// round-trip exactly. The prediction decoder additionally pins the idempotence
// the fault-injection path depends on: re-encoding a decoded payload
// reproduces the payload byte for byte, so a truncated-then-reencoded upload
// equals the prefix of the original encoding. It also pins the value form
// the round engine keeps predictions in: RoundScores gives, bit for bit, what
// decoding the encoding gives, for any float64 score.

import (
	"bytes"
	"io"
	"math"
	"slices"
	"testing"
)

func FuzzDecodePredictions(f *testing.F) {
	f.Add([]byte{}, 0.5)
	f.Add(EncodePredictions([]Prediction{{User: 1, Item: 2, Score: 0.5}}), 1.0/3)
	f.Add(EncodePredictions([]Prediction{{User: 1, Item: 2, Score: 0.5}})[:7], 0.1) // truncated
	f.Add(bytes.Repeat([]byte{0xff}, 36), math.NaN())                               // NaN scores, huge ids
	for _, score := range []float64{
		math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64,               // underflows float32
		math.SmallestNonzeroFloat32,               // float32's least subnormal
		1.5 * math.SmallestNonzeroFloat32,         // a tie between two subnormals
		1 + 0x1p-24, 1 + 3*0x1p-24, 0.5 - 0x1p-26, // float32 rounding ties
		math.MaxFloat32,
		math.MaxFloat32 * (1 + 0x1p-26), // above MaxFloat32, rounding to it
		math.MaxFloat64,                 // overflows float32
		math.Inf(1), math.Inf(-1), -math.NaN(),
	} {
		f.Add(EncodePredictions([]Prediction{{User: 7, Item: 9, Score: 0.25}}), score)
	}
	f.Fuzz(func(t *testing.T, buf []byte, score float64) {
		preds, err := DecodePredictions(buf)
		if err != nil {
			if len(buf)%PredictionWireSize == 0 {
				t.Fatalf("aligned buffer rejected: %v", err)
			}
			return
		}
		if len(preds) != len(buf)/PredictionWireSize {
			t.Fatalf("decoded %d preds from %d bytes", len(preds), len(buf))
		}
		// Decoded scores are exact float32 values, so re-encoding must
		// reproduce the input bitwise — including NaN payload bits? No:
		// float32->float64->float32 preserves NaN-ness but may canonicalise
		// the payload, so compare ids always and scores only when the bytes
		// match a canonical re-encoding of themselves.
		re := EncodePredictions(preds)
		if len(re) != len(buf) {
			t.Fatalf("re-encode length %d vs %d", len(re), len(buf))
		}
		for off := 0; off < len(buf); off += PredictionWireSize {
			if !bytes.Equal(re[off:off+8], buf[off:off+8]) {
				t.Fatalf("ids changed at offset %d", off)
			}
		}
		// Idempotence: decode∘encode is a fixed point after one application.
		preds2, err := DecodePredictions(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		re2 := EncodePredictions(preds2)
		if !bytes.Equal(re, re2) {
			t.Fatal("encode(decode(x)) is not idempotent")
		}

		// The value form: the decoded triples plus one scored by the fuzzed
		// float64, rounded in place, equal decode(encode(·)) bit for bit
		// and encode to the same bytes as before rounding.
		raw := append(slices.Clone(preds), Prediction{User: 7, Item: 9, Score: score})
		rounded := slices.Clone(raw)
		RoundScores(rounded)
		want, err := DecodePredictions(EncodePredictions(raw))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if rounded[i].User != want[i].User || rounded[i].Item != want[i].Item ||
				math.Float64bits(rounded[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("triple %d: RoundScores gives %+v (%#x), decode(encode) gives %+v (%#x)", i,
					rounded[i], math.Float64bits(rounded[i].Score), want[i], math.Float64bits(want[i].Score))
			}
		}
		if !bytes.Equal(EncodePredictions(rounded), EncodePredictions(raw)) {
			t.Fatal("a rounded score encodes to other bytes than the score it was rounded from")
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	f.Add(AppendJoin(nil, Join{UserLo: 0, UserHi: 40}))
	f.Add(AppendFrame(AppendUploadBegin(nil, UploadBegin{Count: 3}), MsgUploadEnd, nil))
	f.Add([]byte{'P', 'T', WireVersion, byte(MsgAck), 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte("garbage that is not a frame at all"))
	// One frame from each remaining appender.
	preds := []Prediction{{User: 3, Item: 9, Score: 0.5}, {User: 3, Item: 11, Score: 0.25}}
	f.Add(AppendJoinAck(nil, JoinAck{Token: 7, NumUsers: 40, NumItems: 60, DataSeed: 1, TestFrac: 0.2,
		Profile: "tiny", ConfigJSON: []byte(`{"Rounds":3}`)}))
	f.Add(AppendRoundStart(nil, RoundStart{Round: 2, Users: []int{3, 5}}))
	f.Add(AppendUploadChunk(nil, preds))
	f.Add(AppendDisperse(nil, Disperse{User: 3, Preds: preds}))
	f.Add(AppendRound(nil, MsgRoundEnd, 2))
	f.Add(AppendRound(nil, MsgAck, 2))
	f.Fuzz(func(t *testing.T, buf []byte) {
		r := bytes.NewReader(buf)
		for {
			mt, payload, err := ReadFrame(r)
			if err != nil {
				break // any malformation must surface as an error, not a panic
			}
			if mt == MsgInvalid || mt >= msgTypeEnd {
				t.Fatalf("ReadFrame returned invalid type %v without error", mt)
			}
			if len(payload) > MaxFramePayload {
				t.Fatalf("payload %d exceeds cap", len(payload))
			}
			// Message-level decoders must be panic-free on any payload the
			// frame layer admits.
			switch mt {
			case MsgJoin:
				_, _ = DecodeJoin(payload)
			case MsgJoinAck:
				_, _ = DecodeJoinAck(payload)
			case MsgRoundStart:
				_, _ = DecodeRoundStart(payload)
			case MsgUploadBegin:
				_, _ = DecodeUploadBegin(payload)
			case MsgUploadChunk:
				_, _ = DecodePredictions(payload)
			case MsgDisperse:
				_, _ = DecodeDisperse(payload)
			case MsgRoundEnd:
				_, _ = DecodeRound(payload)
			}
		}
	})
}

// TestFrameStreamRoundTrip drives a full message sequence through one buffer
// — the exact shape of an upload request body — and checks the reader sees
// the same sequence then a clean EOF.
func TestFrameStreamRoundTrip(t *testing.T) {
	preds := []Prediction{{User: 4, Item: 7, Score: 0.75}, {User: 4, Item: 9, Score: 0.125}}
	body := bytes.NewReader(AppendFrame(AppendUploadChunk(AppendUploadBegin(nil, UploadBegin{
		Round: 1, User: 4, Count: len(preds), Loss: 0.5, AttackF1: 0.25,
	}), preds), MsgUploadEnd, nil))

	mt, payload, err := ReadFrame(body)
	if err != nil || mt != MsgUploadBegin {
		t.Fatalf("first frame: %v %v", mt, err)
	}
	begin, err := DecodeUploadBegin(payload)
	if err != nil || begin.User != 4 || begin.Count != 2 {
		t.Fatalf("begin = %+v, err %v", begin, err)
	}
	mt, payload, err = ReadFrame(body)
	if err != nil || mt != MsgUploadChunk {
		t.Fatalf("second frame: %v %v", mt, err)
	}
	got, err := DecodePredictions(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if got[i].User != preds[i].User || got[i].Item != preds[i].Item {
			t.Fatalf("pred %d = %+v", i, got[i])
		}
	}
	mt, _, err = ReadFrame(body)
	if err != nil || mt != MsgUploadEnd {
		t.Fatalf("third frame: %v %v", mt, err)
	}
	if _, _, err := ReadFrame(body); err != io.EOF {
		t.Fatalf("tail: %v", err)
	}
}
