package comm

// This file is the versioned wire protocol the coordinator service speaks:
// length-prefixed frames carrying registration, round announcements,
// streaming upload ingestion, and dispersal delivery. The payload format for
// prediction triples lives in comm.go; frames wrap them with a typed,
// versioned envelope so a listener can reject garbage before allocating.
//
// Hardening contract: every decoder in this file returns an error — never
// panics — on malformed, truncated, oversized, or version-skewed input. The
// fuzz suite (wire_fuzz_test.go) holds the decoders to that contract over
// adversarial buffers, and to exact round-trips over valid encodings.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// WireVersion is the protocol generation. A frame with any other version is
// rejected at the frame layer, so message-level decoders only ever see their
// own generation's layouts.
const WireVersion = 1

// Frame header layout: magic "PT", version byte, message-type byte, and a
// little-endian uint32 payload length.
const (
	frameMagic0 = 'P'
	frameMagic1 = 'T'

	// FrameHeaderSize is the fixed envelope cost of every message.
	FrameHeaderSize = 8

	// MaxFramePayload caps a single frame's payload. Uploads stream in
	// chunks far below this; the cap exists so a corrupt or hostile length
	// prefix cannot make a reader allocate gigabytes.
	MaxFramePayload = 16 << 20
)

// MsgType tags a frame's payload layout.
type MsgType uint8

// Protocol messages. Registration and round control flow between one
// participant and the coordinator; uploads stream client→server inside one
// request body; dispersals stream server→client inside one response body.
const (
	MsgInvalid MsgType = iota

	// MsgJoin registers a participant hosting a contiguous user range.
	MsgJoin
	// MsgJoinAck carries the session token plus everything a bare
	// participant needs to reconstruct the shared world: dataset profile,
	// data seed, test fraction, and the protocol Config as JSON.
	MsgJoinAck
	// MsgLeave deregisters a session.
	MsgLeave
	// MsgRoundStart announces a round to a polling participant, listing the
	// selected users that participant hosts (possibly none).
	MsgRoundStart
	// MsgUploadBegin opens one user's upload stream: the declared
	// prediction count and the client-side metrics that must survive a
	// transport-truncated payload (they describe the full local upload).
	MsgUploadBegin
	// MsgUploadChunk carries an EncodePredictions run of predictions.
	MsgUploadChunk
	// MsgUploadEnd marks a complete upload. A stream that ends without it
	// was cut by the transport: the coordinator keeps the decoded prefix if
	// at least one chunk arrived (short write), else counts the client as
	// dropped (connection drop).
	MsgUploadEnd
	// MsgDisperse delivers one user's D̃ᵢ.
	MsgDisperse
	// MsgRoundEnd closes a round's dispersal stream.
	MsgRoundEnd
	// MsgShutdown tells a polling participant the run is over.
	MsgShutdown
	// MsgAck is the coordinator's bare positive reply.
	MsgAck
	// MsgError carries a human-readable refusal.
	MsgError

	msgTypeEnd // one past the last valid type
)

var msgTypeNames = [...]string{
	MsgInvalid:     "invalid",
	MsgJoin:        "join",
	MsgJoinAck:     "join-ack",
	MsgLeave:       "leave",
	MsgRoundStart:  "round-start",
	MsgUploadBegin: "upload-begin",
	MsgUploadChunk: "upload-chunk",
	MsgUploadEnd:   "upload-end",
	MsgDisperse:    "disperse",
	MsgRoundEnd:    "round-end",
	MsgShutdown:    "shutdown",
	MsgAck:         "ack",
	MsgError:       "error",
}

func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// ErrFrameMagic reports a frame that does not start with the protocol magic.
var ErrFrameMagic = errors.New("comm: bad frame magic")

// ErrFrameVersion reports a version-skewed frame.
var ErrFrameVersion = errors.New("comm: unsupported wire version")

// AppendFrame appends one framed message to dst and returns it.
func AppendFrame(dst []byte, t MsgType, payload []byte) []byte {
	var hdr [FrameHeaderSize]byte
	hdr[0], hdr[1] = frameMagic0, frameMagic1
	hdr[2] = WireVersion
	hdr[3] = byte(t)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// WriteFrame writes one framed message, returning the bytes put on the wire.
// The frame is staged in a pooled buffer so one Write reaches the wire per
// frame without a per-call allocation.
func WriteFrame(w io.Writer, t MsgType, payload []byte) (int, error) {
	b := GetFrameBuffer()
	b.Append(t, payload)
	n, err := w.Write(b.buf)
	PutFrameBuffer(b)
	return n, err
}

// ReadFrame reads one framed message, validating magic, version, type, and
// payload length before allocating. io.EOF is returned untouched when the
// stream ends cleanly between frames — callers use it as the end-of-stream
// marker; any header or payload cut mid-frame comes back as
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return MsgInvalid, nil, io.EOF
		}
		return MsgInvalid, nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return MsgInvalid, nil, err
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return MsgInvalid, nil, ErrFrameMagic
	}
	if hdr[2] != WireVersion {
		return MsgInvalid, nil, fmt.Errorf("%w: got %d, want %d", ErrFrameVersion, hdr[2], WireVersion)
	}
	t := MsgType(hdr[3])
	if t == MsgInvalid || t >= msgTypeEnd {
		return MsgInvalid, nil, fmt.Errorf("comm: unknown message type %d", hdr[3])
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxFramePayload {
		return MsgInvalid, nil, fmt.Errorf("comm: frame payload %d exceeds cap %d", n, MaxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return MsgInvalid, nil, err
	}
	return t, payload, nil
}

// predictionCodec is the codec byte UploadBegin and Disperse carry: 0, the
// 12-byte triples comm.go defines. The byte keeps the layout of protocol
// generation 1; a decoder refuses any other value.
const predictionCodec = 0

// Codec encodes and decodes the one prediction format. It and CodecFor stay
// only because bench/'s probes still call them; CodecFor ignores its
// argument.
type Codec struct{}

// CodecFor returns the prediction codec.
func CodecFor(bool) Codec { return Codec{} }

// Encode is EncodePredictions.
func (Codec) Encode(preds []Prediction) []byte { return EncodePredictions(preds) }

// Decode is DecodePredictions.
func (Codec) Decode(buf []byte) ([]Prediction, error) { return DecodePredictions(buf) }

// Join registers a participant hosting users [UserLo, UserHi).
type Join struct {
	UserLo, UserHi int
}

// EncodeJoin serialises a Join payload.
func EncodeJoin(j Join) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[0:4], uint32(j.UserLo))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(j.UserHi))
	return buf[:]
}

// DecodeJoin parses a Join payload.
func DecodeJoin(buf []byte) (Join, error) {
	if len(buf) != 8 {
		return Join{}, fmt.Errorf("comm: join payload length %d, want 8", len(buf))
	}
	return Join{
		UserLo: int(binary.LittleEndian.Uint32(buf[0:4])),
		UserHi: int(binary.LittleEndian.Uint32(buf[4:8])),
	}, nil
}

// JoinAck is the coordinator's registration reply: a session token plus the
// world description a bare participant rebuilds its local state from.
type JoinAck struct {
	Token              uint64
	NumUsers, NumItems int
	DataSeed           uint64
	TestFrac           float64
	Profile            string // dataset profile name ("" = caller supplies the split)
	ConfigJSON         []byte // fed.Config as JSON
}

// EncodeJoinAck serialises a JoinAck payload.
func EncodeJoinAck(a JoinAck) []byte {
	buf := make([]byte, 0, 34+len(a.Profile)+len(a.ConfigJSON))
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], a.Token)
	buf = append(buf, scratch[:]...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(a.NumUsers))
	buf = append(buf, scratch[:4]...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(a.NumItems))
	buf = append(buf, scratch[:4]...)
	binary.LittleEndian.PutUint64(scratch[:], a.DataSeed)
	buf = append(buf, scratch[:]...)
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(a.TestFrac))
	buf = append(buf, scratch[:]...)
	binary.LittleEndian.PutUint16(scratch[:2], uint16(len(a.Profile)))
	buf = append(buf, scratch[:2]...)
	buf = append(buf, a.Profile...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(a.ConfigJSON)))
	buf = append(buf, scratch[:4]...)
	return append(buf, a.ConfigJSON...)
}

// DecodeJoinAck parses a JoinAck payload.
func DecodeJoinAck(buf []byte) (JoinAck, error) {
	const fixed = 34 // token + users + items + seed + frac + profile len + config len
	if len(buf) < fixed {
		return JoinAck{}, fmt.Errorf("comm: join-ack payload length %d, want >= %d", len(buf), fixed)
	}
	a := JoinAck{
		Token:    binary.LittleEndian.Uint64(buf[0:8]),
		NumUsers: int(binary.LittleEndian.Uint32(buf[8:12])),
		NumItems: int(binary.LittleEndian.Uint32(buf[12:16])),
		DataSeed: binary.LittleEndian.Uint64(buf[16:24]),
		TestFrac: math.Float64frombits(binary.LittleEndian.Uint64(buf[24:32])),
	}
	np := int(binary.LittleEndian.Uint16(buf[32:34]))
	rest := buf[34:]
	if len(rest) < np+4 {
		return JoinAck{}, fmt.Errorf("comm: join-ack truncated inside profile name")
	}
	a.Profile = string(rest[:np])
	rest = rest[np:]
	nc := int(binary.LittleEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if len(rest) != nc {
		return JoinAck{}, fmt.Errorf("comm: join-ack config length %d, have %d", nc, len(rest))
	}
	if nc > 0 {
		a.ConfigJSON = append([]byte(nil), rest...)
	}
	return a, nil
}

// RoundStart announces round Round, listing the selected users the polled
// participant hosts.
type RoundStart struct {
	Round int
	Users []int
}

// EncodeRoundStart serialises a RoundStart payload.
func EncodeRoundStart(rs RoundStart) []byte {
	buf := make([]byte, 8+4*len(rs.Users))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(rs.Round))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(rs.Users)))
	for i, u := range rs.Users {
		binary.LittleEndian.PutUint32(buf[8+4*i:], uint32(u))
	}
	return buf
}

// DecodeRoundStart parses a RoundStart payload.
func DecodeRoundStart(buf []byte) (RoundStart, error) {
	if len(buf) < 8 {
		return RoundStart{}, fmt.Errorf("comm: round-start payload length %d, want >= 8", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf[4:8]))
	if len(buf) != 8+4*n {
		return RoundStart{}, fmt.Errorf("comm: round-start declares %d users in %d payload bytes", n, len(buf))
	}
	rs := RoundStart{Round: int(binary.LittleEndian.Uint32(buf[0:4]))}
	if n > 0 {
		rs.Users = make([]int, n)
		for i := range rs.Users {
			rs.Users[i] = int(binary.LittleEndian.Uint32(buf[8+4*i:]))
		}
	}
	return rs, nil
}

// UploadBegin opens one user's upload stream. Loss and AttackF1 describe the
// client's full local upload — they ride the opening frame so a
// transport-truncated stream still reports them, exactly like a real client
// that computed its metrics before its connection died.
type UploadBegin struct {
	Round, User int
	Count       int // declared predictions in the full upload
	Loss        float64
	AttackF1    float64
}

// EncodeUploadBegin serialises an UploadBegin payload.
func EncodeUploadBegin(b UploadBegin) []byte {
	buf := make([]byte, 29)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(b.Round))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(b.User))
	buf[8] = predictionCodec
	binary.LittleEndian.PutUint32(buf[9:13], uint32(b.Count))
	binary.LittleEndian.PutUint64(buf[13:21], math.Float64bits(b.Loss))
	binary.LittleEndian.PutUint64(buf[21:29], math.Float64bits(b.AttackF1))
	return buf
}

// DecodeUploadBegin parses an UploadBegin payload.
func DecodeUploadBegin(buf []byte) (UploadBegin, error) {
	if len(buf) != 29 {
		return UploadBegin{}, fmt.Errorf("comm: upload-begin payload length %d, want 29", len(buf))
	}
	if buf[8] != predictionCodec {
		return UploadBegin{}, fmt.Errorf("comm: upload-begin names unknown codec %d", buf[8])
	}
	return UploadBegin{
		Round:    int(binary.LittleEndian.Uint32(buf[0:4])),
		User:     int(binary.LittleEndian.Uint32(buf[4:8])),
		Count:    int(binary.LittleEndian.Uint32(buf[9:13])),
		Loss:     math.Float64frombits(binary.LittleEndian.Uint64(buf[13:21])),
		AttackF1: math.Float64frombits(binary.LittleEndian.Uint64(buf[21:29])),
	}, nil
}

// Disperse delivers one user's D̃ᵢ.
type Disperse struct {
	User    int
	Payload []byte // EncodePredictions' bytes
}

// EncodeDisperse serialises a Disperse payload.
func EncodeDisperse(d Disperse) []byte {
	buf := make([]byte, 0, 5+len(d.Payload))
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], uint32(d.User))
	buf = append(buf, scratch[:]...)
	buf = append(buf, predictionCodec)
	return append(buf, d.Payload...)
}

// DecodeDisperse parses a Disperse payload. The prediction payload is
// validated against the triple stride but left encoded — the caller decodes
// it with DecodePredictions.
func DecodeDisperse(buf []byte) (Disperse, error) {
	if len(buf) < 5 {
		return Disperse{}, fmt.Errorf("comm: disperse payload length %d, want >= 5", len(buf))
	}
	if buf[4] != predictionCodec {
		return Disperse{}, fmt.Errorf("comm: disperse names unknown codec %d", buf[4])
	}
	d := Disperse{User: int(binary.LittleEndian.Uint32(buf[0:4]))}
	if rest := buf[5:]; len(rest) > 0 {
		if len(rest)%PredictionWireSize != 0 {
			return Disperse{}, fmt.Errorf("comm: disperse payload %d not a multiple of stride %d", len(rest), PredictionWireSize)
		}
		d.Payload = append([]byte(nil), rest...)
	}
	return d, nil
}

// EncodeRound serialises the round-number payload shared by MsgRoundEnd.
func EncodeRound(round int) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(round))
	return buf[:]
}

// DecodeRound parses a round-number payload.
func DecodeRound(buf []byte) (int, error) {
	if len(buf) != 4 {
		return 0, fmt.Errorf("comm: round payload length %d, want 4", len(buf))
	}
	return int(binary.LittleEndian.Uint32(buf)), nil
}
