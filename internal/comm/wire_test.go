package comm

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xab}, 1000)}
	var wire bytes.Buffer
	for _, p := range payloads {
		n, err := WriteFrame(&wire, MsgUploadChunk, p)
		if err != nil {
			t.Fatal(err)
		}
		if n != FrameHeaderSize+len(p) {
			t.Fatalf("wrote %d bytes for %d payload", n, len(p))
		}
	}
	for _, p := range payloads {
		mt, got, err := ReadFrame(&wire)
		if err != nil {
			t.Fatal(err)
		}
		if mt != MsgUploadChunk {
			t.Fatalf("type = %v", mt)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload mismatch: %v vs %v", got, p)
		}
	}
	if _, _, err := ReadFrame(&wire); err != io.EOF {
		t.Fatalf("end of stream: err = %v, want io.EOF", err)
	}
}

func TestReadFrameRejects(t *testing.T) {
	good := AppendFrame(nil, MsgAck, []byte("x"))
	cases := map[string][]byte{
		"bad magic":       append([]byte{'X', 'T'}, good[2:]...),
		"bad version":     append([]byte{'P', 'T', 99}, good[3:]...),
		"invalid type":    append([]byte{'P', 'T', WireVersion, 0}, good[4:]...),
		"unknown type":    append([]byte{'P', 'T', WireVersion, 250}, good[4:]...),
		"oversized":       {'P', 'T', WireVersion, byte(MsgAck), 0xff, 0xff, 0xff, 0xff},
		"cut header":      good[:5],
		"cut payload":     good[:len(good)-1],
		"mid-magic eof":   good[:1],
		"declared > have": AppendFrame(nil, MsgAck, make([]byte, 10))[:12],
	}
	for name, buf := range cases {
		if _, _, err := ReadFrame(bytes.NewReader(buf)); err == nil || err == io.EOF {
			t.Fatalf("%s: err = %v, want a real error", name, err)
		}
	}
	if _, _, err := ReadFrame(bytes.NewReader(append([]byte{'Q'}, good...))); !errors.Is(err, ErrFrameMagic) {
		t.Fatalf("magic: err = %v", err)
	}
}

func TestJoinRoundTrip(t *testing.T) {
	j := Join{UserLo: 7, UserHi: 4096}
	got, err := DecodeJoin(EncodeJoin(j))
	if err != nil {
		t.Fatal(err)
	}
	if got != j {
		t.Fatalf("got %+v", got)
	}
	if _, err := DecodeJoin([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated join accepted")
	}
}

func TestJoinAckRoundTrip(t *testing.T) {
	a := JoinAck{
		Token:    0xdeadbeefcafe,
		NumUsers: 40, NumItems: 60,
		DataSeed: 42, TestFrac: 0.2,
		Profile:    "tiny",
		ConfigJSON: []byte(`{"Rounds":3}`),
	}
	got, err := DecodeJoinAck(EncodeJoinAck(a))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("got %+v, want %+v", got, a)
	}
	// Empty optional fields survive too.
	b := JoinAck{Token: 1, NumUsers: 2, NumItems: 3}
	got, err = DecodeJoinAck(EncodeJoinAck(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("got %+v, want %+v", got, b)
	}
	enc := EncodeJoinAck(a)
	for _, cut := range []int{0, 10, 33, 35, len(enc) - 1} {
		if _, err := DecodeJoinAck(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestRoundStartRoundTrip(t *testing.T) {
	for _, rs := range []RoundStart{{Round: 0}, {Round: 3, Users: []int{1, 5, 9}}} {
		got, err := DecodeRoundStart(EncodeRoundStart(rs))
		if err != nil {
			t.Fatal(err)
		}
		if got.Round != rs.Round || !reflect.DeepEqual(got.Users, rs.Users) {
			t.Fatalf("got %+v, want %+v", got, rs)
		}
	}
	if _, err := DecodeRoundStart([]byte{0, 0, 0, 0, 9, 0, 0, 0}); err == nil {
		t.Fatal("declared users without payload accepted")
	}
}

func TestUploadBeginRoundTrip(t *testing.T) {
	b := UploadBegin{Round: 2, User: 17, Count: 40, Loss: 0.25, AttackF1: 0.5}
	got, err := DecodeUploadBegin(EncodeUploadBegin(b))
	if err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Fatalf("got %+v", got)
	}
	// Byte 8 is the codec byte: 0 is the one prediction format, 1 the
	// retired quantized codec's id, 99 never named anything.
	for _, codec := range []byte{1, 99} {
		bad := EncodeUploadBegin(b)
		bad[8] = codec
		if _, err := DecodeUploadBegin(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("codec %d", codec)) {
			t.Fatalf("codec byte %d: err = %v, want the unknown-codec refusal", codec, err)
		}
	}
	if _, err := DecodeUploadBegin(EncodeUploadBegin(b)[:10]); err == nil {
		t.Fatal("truncated upload-begin accepted")
	}
}

func TestDisperseRoundTrip(t *testing.T) {
	preds := []Prediction{{User: 3, Item: 9, Score: 0.5}, {User: 3, Item: 11, Score: 0.25}}
	d := Disperse{User: 3, Payload: EncodePredictions(preds)}
	got, err := DecodeDisperse(EncodeDisperse(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.User != d.User || !bytes.Equal(got.Payload, d.Payload) {
		t.Fatalf("got %+v, want %+v", got, d)
	}
	back, err := DecodePredictions(got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, preds) {
		t.Fatalf("decoded %+v, want %+v", back, preds)
	}
	// Byte 4 is the codec byte, as in the upload-begin frame.
	for _, codec := range []byte{1, 99} {
		bad := EncodeDisperse(d)
		bad[4] = codec
		if _, err := DecodeDisperse(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("codec %d", codec)) {
			t.Fatalf("codec byte %d: err = %v, want the unknown-codec refusal", codec, err)
		}
	}
	if _, err := DecodeDisperse([]byte{0, 0, 0, 0, 0, 1, 2, 3}); err == nil {
		t.Fatal("ragged disperse payload accepted")
	}
}

// TestCodecDispatch pins the Codec shim bench/ still calls: it is the one
// prediction format, byte for byte, whatever CodecFor is asked for.
func TestCodecDispatch(t *testing.T) {
	preds := []Prediction{{User: 1, Item: 2, Score: 0.5}, {User: 1, Item: 7, Score: 1.0 / 3}}
	want := EncodePredictions(preds)
	for _, quantize := range []bool{false, true} {
		codec := CodecFor(quantize)
		payload := codec.Encode(preds)
		if !bytes.Equal(payload, want) {
			t.Fatalf("CodecFor(%v).Encode = %x, want EncodePredictions' %x", quantize, payload, want)
		}
		got, err := codec.Decode(payload)
		wantPreds, wantErr := DecodePredictions(payload)
		if err != nil || wantErr != nil || !reflect.DeepEqual(got, wantPreds) {
			t.Fatalf("CodecFor(%v).Decode = %+v, %v; DecodePredictions = %+v, %v", quantize, got, err, wantPreds, wantErr)
		}
		if _, err := codec.Decode(want[:7]); err == nil {
			t.Fatalf("CodecFor(%v).Decode accepted a ragged payload", quantize)
		}
	}
}
