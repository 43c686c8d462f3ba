package comm

// This file is the versioned wire protocol the coordinator service speaks:
// length-prefixed frames carrying registration, round announcements,
// streaming upload ingestion, and dispersal delivery. The payload format for
// prediction triples lives in comm.go; frames wrap them with a typed,
// versioned envelope so a listener can reject garbage before allocating.
// Each message has one constructor, AppendX, which appends its whole frame to
// the caller's slice, sizing it once; AppendFrame frames a raw payload.
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
	"slices"
	"sync"
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
	// MsgUploadBegin opens one user's upload stream — one of the streams an
	// upload body carries: the round, the user, the declared prediction
	// count and the client-side metrics that must survive a
	// transport-truncated payload (they describe the full local upload).
	MsgUploadBegin
	// MsgUploadChunk carries an EncodePredictions run of predictions.
	MsgUploadChunk
	// MsgUploadEnd marks a complete upload; after a begin frame declaring
	// no predictions, a dropped client. A stream that ends without it — at
	// the next begin frame or the body's end — was cut by the transport:
	// the coordinator keeps the decoded prefix if at least one prediction
	// arrived (short write), else counts the client as dropped.
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

// AppendFrame appends one framed message carrying a raw payload to dst and
// returns it: MsgError's text, or nothing. Every other message has its own
// appender, which frames its fields straight into dst.
func AppendFrame(dst []byte, t MsgType, payload []byte) []byte {
	return append(appendHeader(dst, t, len(payload)), payload...)
}

// appendHeader grows dst once to hold a whole type-t frame whose payload is n
// bytes long and appends the envelope; the caller appends exactly n payload
// bytes.
func appendHeader(dst []byte, t MsgType, n int) []byte {
	dst = slices.Grow(dst, FrameHeaderSize+n)
	dst = append(dst, frameMagic0, frameMagic1, WireVersion, byte(t))
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// framePool holds WriteFrame's staging buffers.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// WriteFrame writes one framed message, returning the bytes put on the wire.
// The frame is staged in a pooled buffer so one Write reaches the wire per
// frame without a per-call allocation. It stays because bench/'s probes call
// it; the coordinator and participant write what the appenders built.
func WriteFrame(w io.Writer, t MsgType, payload []byte) (int, error) {
	buf := framePool.Get().(*[]byte)
	*buf = AppendFrame((*buf)[:0], t, payload)
	n, err := w.Write(*buf)
	framePool.Put(buf)
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

// AppendJoin appends j's MsgJoin frame to dst.
func AppendJoin(dst []byte, j Join) []byte {
	dst = appendHeader(dst, MsgJoin, 8)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(j.UserLo))
	return binary.LittleEndian.AppendUint32(dst, uint32(j.UserHi))
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
	Profile            string // dataset profile name, resolved by data.ProfileByName (which refuses "")
	ConfigJSON         []byte // fed.Config as JSON
}

// joinAckFixed is a JoinAck payload's size without its profile name and
// config: token, users, items, seed, fraction, profile length, config length.
const joinAckFixed = 38

// AppendJoinAck appends a's MsgJoinAck frame to dst.
func AppendJoinAck(dst []byte, a JoinAck) []byte {
	le := binary.LittleEndian
	dst = appendHeader(dst, MsgJoinAck, joinAckFixed+len(a.Profile)+len(a.ConfigJSON))
	dst = le.AppendUint64(dst, a.Token)
	dst = le.AppendUint32(dst, uint32(a.NumUsers))
	dst = le.AppendUint32(dst, uint32(a.NumItems))
	dst = le.AppendUint64(dst, a.DataSeed)
	dst = le.AppendUint64(dst, math.Float64bits(a.TestFrac))
	dst = le.AppendUint16(dst, uint16(len(a.Profile)))
	dst = append(dst, a.Profile...)
	dst = le.AppendUint32(dst, uint32(len(a.ConfigJSON)))
	return append(dst, a.ConfigJSON...)
}

// DecodeJoinAck parses a JoinAck payload.
func DecodeJoinAck(buf []byte) (JoinAck, error) {
	if len(buf) < joinAckFixed {
		return JoinAck{}, fmt.Errorf("comm: join-ack payload length %d, want >= %d", len(buf), joinAckFixed)
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

// AppendRoundStart appends rs's MsgRoundStart frame to dst.
func AppendRoundStart(dst []byte, rs RoundStart) []byte {
	dst = appendHeader(dst, MsgRoundStart, 8+4*len(rs.Users))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rs.Round))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rs.Users)))
	for _, u := range rs.Users {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(u))
	}
	return dst
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

// uploadBeginSize is an UploadBegin payload's size.
const uploadBeginSize = 29

// AppendUploadBegin appends b's MsgUploadBegin frame to dst.
func AppendUploadBegin(dst []byte, b UploadBegin) []byte {
	le := binary.LittleEndian
	dst = appendHeader(dst, MsgUploadBegin, uploadBeginSize)
	dst = le.AppendUint32(dst, uint32(b.Round))
	dst = le.AppendUint32(dst, uint32(b.User))
	dst = append(dst, predictionCodec)
	dst = le.AppendUint32(dst, uint32(b.Count))
	dst = le.AppendUint64(dst, math.Float64bits(b.Loss))
	return le.AppendUint64(dst, math.Float64bits(b.AttackF1))
}

// AppendUploadChunk appends a MsgUploadChunk frame carrying preds to dst,
// encoding them straight into it.
func AppendUploadChunk(dst []byte, preds []Prediction) []byte {
	return AppendPredictions(appendHeader(dst, MsgUploadChunk, len(preds)*PredictionWireSize), preds)
}

// DecodeUploadBegin parses an UploadBegin payload.
func DecodeUploadBegin(buf []byte) (UploadBegin, error) {
	if len(buf) != uploadBeginSize {
		return UploadBegin{}, fmt.Errorf("comm: upload-begin payload length %d, want %d", len(buf), uploadBeginSize)
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
	User  int
	Preds []Prediction
}

// AppendDisperse appends d's MsgDisperse frame to dst: the user, the codec
// byte and the predictions, encoded straight into it.
func AppendDisperse(dst []byte, d Disperse) []byte {
	dst = appendHeader(dst, MsgDisperse, 5+len(d.Preds)*PredictionWireSize)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(d.User))
	return AppendPredictions(append(dst, predictionCodec), d.Preds)
}

// DecodeDisperse parses a Disperse payload, decoding its predictions.
func DecodeDisperse(buf []byte) (Disperse, error) {
	if len(buf) < 5 {
		return Disperse{}, fmt.Errorf("comm: disperse payload length %d, want >= 5", len(buf))
	}
	if buf[4] != predictionCodec {
		return Disperse{}, fmt.Errorf("comm: disperse names unknown codec %d", buf[4])
	}
	preds, err := DecodePredictions(buf[5:])
	if err != nil {
		return Disperse{}, err
	}
	return Disperse{User: int(binary.LittleEndian.Uint32(buf[0:4])), Preds: preds}, nil
}

// AppendRound appends a type-t frame whose payload is the round number to
// dst: MsgRoundEnd, and the MsgAck that accepts an upload.
func AppendRound(dst []byte, t MsgType, round int) []byte {
	return binary.LittleEndian.AppendUint32(appendHeader(dst, t, 4), uint32(round))
}

// DecodeRound parses a round-number payload.
func DecodeRound(buf []byte) (int, error) {
	if len(buf) != 4 {
		return 0, fmt.Errorf("comm: round payload length %d, want 4", len(buf))
	}
	return int(binary.LittleEndian.Uint32(buf)), nil
}
