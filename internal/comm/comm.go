// Package comm defines the wire formats exchanged in the federated protocols
// and a byte meter that measures them. Table IV's comparison is produced by
// actually encoding every message — prediction triples for PTF-FedRec,
// float32 parameter blocks for FCF/MetaMF, Paillier ciphertexts for FedMF —
// and counting the encoded bytes.
package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Prediction is one scored triple (uᵢ, vⱼ, r̂ᵢⱼ) — the knowledge carrier of
// PTF-FedRec. On the wire it is 12 bytes: two uint32 ids and a float32 score.
type Prediction struct {
	User, Item int
	Score      float64
}

// PredictionWireSize is the encoded size of one Prediction in bytes.
const PredictionWireSize = 12

// PredictionMemBytes is the in-memory size of one Prediction (two ints and a
// float64) — the unit per-upload memory accounting multiplies by. The server
// stores the decoded float64 score rather than the 4-byte wire encoding
// because the non-quantized protocol trains on the exact uploaded values.
const PredictionMemBytes = 24

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

// meterShards partitions the meter's per-client counters. In the networked
// coordinator, uploads from concurrent connections meter per-client bytes in
// parallel; sharding by client id keeps those updates off one hot mutex.
// A power of two so the shard index is a mask.
const meterShards = 64

// meterShard is one client partition's counters under its own lock, padded
// to a cache line so neighbouring shards never false-share.
type meterShard struct {
	mu    sync.Mutex
	bytes map[int]int64 // per client, both directions
	_     [48]byte
}

// Meter accumulates per-client traffic across rounds, uploads and downloads
// together: Table IV reports their sum, and a round's own up/down split lives
// in fed.RoundStats. It is safe for concurrent use from any number of
// goroutines: per-client byte counters shard over client id (the round
// engine's parallel dispersal and the coordinator's concurrent upload
// handlers both hammer it), and the round counter is atomic.
type Meter struct {
	shards [meterShards]meterShard
	rounds atomic.Int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	m := &Meter{}
	for i := range m.shards {
		m.shards[i].bytes = map[int]int64{}
	}
	return m
}

// shard maps a client id to its counter partition. Negative ids (not
// produced by the protocol, but the meter should never panic) fold in too.
func (m *Meter) shard(client int) *meterShard {
	return &m.shards[uint(client)&(meterShards-1)]
}

// AddUp records bytes sent from a client to the server.
func (m *Meter) AddUp(client, bytes int) { m.add(client, bytes) }

// AddDown records bytes sent from the server to a client.
func (m *Meter) AddDown(client, bytes int) { m.add(client, bytes) }

func (m *Meter) add(client, bytes int) {
	sh := m.shard(client)
	sh.mu.Lock()
	sh.bytes[client] += int64(bytes)
	sh.mu.Unlock()
}

// EndRound marks the completion of one global round.
func (m *Meter) EndRound() { m.rounds.Add(1) }

// Rounds returns the number of completed rounds.
func (m *Meter) Rounds() int { return int(m.rounds.Load()) }

// AvgPerClientPerRound returns the mean bytes (up+down) one client exchanges
// in one round — the quantity Table IV reports.
func (m *Meter) AvgPerClientPerRound() float64 {
	var clients, total int64
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		clients += int64(len(sh.bytes))
		for _, v := range sh.bytes {
			total += v
		}
		sh.mu.Unlock()
	}
	rounds := m.rounds.Load()
	if clients == 0 || rounds == 0 {
		return 0
	}
	return float64(total) / float64(clients) / float64(rounds)
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
