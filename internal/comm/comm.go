// Package comm defines the wire formats exchanged in the federated protocols
// and the sizes Table IV is computed from. Only the transport encodes: the
// round engine keeps predictions as values, their scores rounded to the
// wire's float32 (RoundScores), and the coordinator and participant frame
// them where they cross HTTP, each message through its one appender in
// wire.go (AppendDisperse, AppendUploadChunk, ...), which sizes the whole
// frame once and encodes the values straight into the caller's slice.
// EncodePredictions stays for the tests' payload-first oracles and the Codec
// shim. PTF-FedRec's cell counts the 12 bytes each shared prediction takes on
// the wire (fed.History's upload and dispersal totals). The baselines encode
// nothing: their cells are the payload sizes their protocols would ship —
// float32 parameter blocks for FCF and MetaMF (Float32BlockSize), packed
// Paillier ciphertexts for FedMF.
package comm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Prediction is one scored triple (uᵢ, vⱼ, r̂ᵢⱼ) — the knowledge carrier of
// PTF-FedRec. On the wire it is 12 bytes: two uint32 ids and a float32 score.
type Prediction struct {
	User, Item int
	Score      float64
}

// PredictionWireSize is the encoded size of one Prediction in bytes.
const PredictionWireSize = 12

// EncodePredictions serialises triples to the compact wire format.
func EncodePredictions(preds []Prediction) []byte {
	return AppendPredictions(make([]byte, 0, len(preds)*PredictionWireSize), preds)
}

// AppendPredictions appends the wire encoding of preds to dst and returns
// the extended slice.
func AppendPredictions(dst []byte, preds []Prediction) []byte {
	var scratch [PredictionWireSize]byte
	for _, p := range preds {
		binary.LittleEndian.PutUint32(scratch[0:4], uint32(p.User))
		binary.LittleEndian.PutUint32(scratch[4:8], uint32(p.Item))
		binary.LittleEndian.PutUint32(scratch[8:12], math.Float32bits(float32(p.Score)))
		dst = append(dst, scratch[:]...)
	}
	return dst
}

// RoundScores rounds every score in place to the float32 the wire carries.
// For ids in [0, 2³²) the result is DecodePredictions(EncodePredictions(preds))
// bit for bit and encodes to the same bytes, so code that hands predictions
// on as values calls it where a transport would encode them.
func RoundScores(preds []Prediction) {
	for i := range preds {
		preds[i].Score = float64(float32(preds[i].Score))
	}
}

// DecodePredictions parses the wire format back into triples.
func DecodePredictions(buf []byte) ([]Prediction, error) {
	if len(buf)%PredictionWireSize != 0 {
		return nil, fmt.Errorf("comm: prediction payload length %d not a multiple of %d", len(buf), PredictionWireSize)
	}
	out := make([]Prediction, 0, len(buf)/PredictionWireSize)
	for off := 0; off < len(buf); off += PredictionWireSize {
		out = append(out, Prediction{
			User:  int(binary.LittleEndian.Uint32(buf[off : off+4])),
			Item:  int(binary.LittleEndian.Uint32(buf[off+4 : off+8])),
			Score: float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off+8 : off+12]))),
		})
	}
	return out, nil
}

// Float32BlockSize returns the encoded size of n float32 parameters — the
// payload unit of the parameter-transmission baselines.
func Float32BlockSize(n int) int { return 4 * n }

// FormatBytes renders a byte count the way the paper's Table IV does
// (e.g. "3.02KB", "7.32MB").
func FormatBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}
