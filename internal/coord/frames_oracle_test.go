package coord

// Oracles for the frames the transport builds from prediction values: the
// payload-first constructions, which encoded a prediction list once and then
// framed slices of its bytes. The frames built straight from the values must
// equal them byte for byte.

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
)

// appendUploadOracle frames one round result as its upload stream from
// payloads: the begin payload laid out field by field (round, user, codec
// byte 0, count, loss, attack F1), the transmitted prefix of the encoded
// upload cut into uploadChunkPreds-triple chunks, and the end frame unless
// the stream was cut short.
func appendUploadOracle(dst []byte, round int, res fed.ClientRoundResult) []byte {
	le := binary.LittleEndian
	begin := le.AppendUint32(nil, uint32(round))
	begin = le.AppendUint32(begin, uint32(res.ID))
	begin = append(begin, 0)
	begin = le.AppendUint32(begin, uint32(len(res.Preds)))
	begin = le.AppendUint64(begin, math.Float64bits(res.Loss))
	begin = le.AppendUint64(begin, math.Float64bits(res.AttackF1))
	dst = comm.AppendFrame(dst, comm.MsgUploadBegin, begin)
	payload := comm.EncodePredictions(res.Preds)[:res.SendPreds*comm.PredictionWireSize]
	chunkBytes := uploadChunkPreds * comm.PredictionWireSize
	for off := 0; off < len(payload); off += chunkBytes {
		dst = comm.AppendFrame(dst, comm.MsgUploadChunk, payload[off:min(off+chunkBytes, len(payload))])
	}
	if res.SendPreds == len(res.Preds) {
		dst = comm.AppendFrame(dst, comm.MsgUploadEnd, nil)
	}
	return dst
}

// disperseFrameOracle frames a dispersal from its encoded payload: the user,
// the codec byte 0 and the payload, in a MsgDisperse frame.
func disperseFrameOracle(user int, payload []byte) []byte {
	body := binary.LittleEndian.AppendUint32(nil, uint32(user))
	body = append(body, 0)
	return comm.AppendFrame(nil, comm.MsgDisperse, append(body, payload...))
}

// TestFramesMatchPayloadOracles runs three faulted rounds through a client
// host and a round engine and pins every upload stream appendUpload builds —
// complete, truncated and dropped, at several chunk sizes — and every
// dispersal event publishRound builds (comm.AppendDisperse) to the
// payload-first oracles, and the dispersal event to decode back to the
// dispersal's values.
func TestFramesMatchPayloadOracles(t *testing.T) {
	defer func(old int) { uploadChunkPreds = old }(uploadChunkPreds)
	sp := testSplit()
	cfg := testConfig(models.KindLightGCN, 2)
	cfg.Rounds = 3
	cfg.Faults = fed.FaultPlan{DropoutRate: 0.3, TruncateRate: 0.5}
	host, err := fed.NewClientHost(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := fed.NewRoundEngine(sp.NumUsers, sp.NumItems, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dropped, truncated, complete, dispersals int
	var got, want []byte
	for round := range cfg.Rounds {
		users := engine.Select(round)
		outcomes := make([]fed.ClientOutcome, len(users))
		for slot, u := range users {
			res := host.RunClientRound(round, u)
			switch {
			case res.Dropped:
				dropped++
			case res.SendPreds < len(res.Preds):
				truncated++
			default:
				complete++
			}
			for _, chunk := range []int{1, 3, 512} {
				uploadChunkPreds = chunk
				got = appendUpload(got[:0], round, res)
				want = appendUploadOracle(want[:0], round, res)
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d user %d (dropped %v, %d of %d sent), %d-triple chunks: upload stream differs from the payload-first oracle",
						round, u, res.Dropped, res.SendPreds, len(res.Preds), chunk)
				}
			}
			outcomes[slot] = res.Outcome()
		}
		_, ds := engine.CloseRound(round, outcomes, nil)
		for _, d := range ds {
			frame := comm.AppendDisperse(nil, comm.Disperse{User: d.ID, Preds: d.Preds})
			if want := disperseFrameOracle(d.ID, comm.EncodePredictions(d.Preds)); !bytes.Equal(frame, want) {
				t.Fatalf("round %d user %d: dispersal event %x, the payload-first oracle frames %x", round, d.ID, frame, want)
			}
			mt, payload, err := comm.ReadFrame(bytes.NewReader(frame))
			if err != nil || mt != comm.MsgDisperse {
				t.Fatalf("round %d user %d: dispersal event reads as %v, %v", round, d.ID, mt, err)
			}
			back, err := comm.DecodeDisperse(payload)
			if err != nil || back.User != d.ID || !slices.Equal(back.Preds, d.Preds) {
				t.Fatalf("round %d user %d: dispersal event decodes as %+v, %v; want the dispersal's values", round, d.ID, back, err)
			}
			host.Deliver(d.ID, d.Preds)
			dispersals++
		}
	}
	if dropped == 0 || truncated == 0 || complete == 0 || dispersals == 0 {
		t.Fatalf("%d dropped, %d truncated and %d complete uploads, %d dispersals: the faults must produce every kind",
			dropped, truncated, complete, dispersals)
	}
}
