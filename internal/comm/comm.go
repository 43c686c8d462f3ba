// Package comm defines the wire formats exchanged in the federated protocols
// and the sizes Table IV is computed from. PTF-FedRec's cell counts the bytes
// of the prediction payloads it actually encodes (fed.History's upload and
// dispersal totals). The baselines encode nothing: their cells are the payload
// sizes their protocols would ship — float32 parameter blocks for FCF and
// MetaMF (Float32BlockSize), packed Paillier ciphertexts for FedMF.
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
	buf := make([]byte, 0, len(preds)*PredictionWireSize)
	var scratch [PredictionWireSize]byte
	for _, p := range preds {
		binary.LittleEndian.PutUint32(scratch[0:4], uint32(p.User))
		binary.LittleEndian.PutUint32(scratch[4:8], uint32(p.Item))
		binary.LittleEndian.PutUint32(scratch[8:12], math.Float32bits(float32(p.Score)))
		buf = append(buf, scratch[:]...)
	}
	return buf
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

// QuantizedWireSize is the encoded size of one quantized Prediction: two
// uint32 ids and a uint8 score bucket.
const QuantizedWireSize = 9

// EncodePredictionsQuantized serialises triples with scores quantized to 256
// uniform buckets in [0,1] — the communication-compression extension the
// paper's efficiency discussion points at. 25% smaller than the float32
// format at a worst-case score error of 1/512.
func EncodePredictionsQuantized(preds []Prediction) []byte {
	buf := make([]byte, 0, len(preds)*QuantizedWireSize)
	var scratch [QuantizedWireSize]byte
	for _, p := range preds {
		binary.LittleEndian.PutUint32(scratch[0:4], uint32(p.User))
		binary.LittleEndian.PutUint32(scratch[4:8], uint32(p.Item))
		s := p.Score
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		scratch[8] = uint8(s*255 + 0.5)
		buf = append(buf, scratch[:]...)
	}
	return buf
}

// DecodePredictionsQuantized parses the quantized wire format.
func DecodePredictionsQuantized(buf []byte) ([]Prediction, error) {
	if len(buf)%QuantizedWireSize != 0 {
		return nil, fmt.Errorf("comm: quantized payload length %d not a multiple of %d", len(buf), QuantizedWireSize)
	}
	out := make([]Prediction, 0, len(buf)/QuantizedWireSize)
	for off := 0; off < len(buf); off += QuantizedWireSize {
		out = append(out, Prediction{
			User:  int(binary.LittleEndian.Uint32(buf[off : off+4])),
			Item:  int(binary.LittleEndian.Uint32(buf[off+4 : off+8])),
			Score: float64(buf[off+8]) / 255,
		})
	}
	return out, nil
}

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
