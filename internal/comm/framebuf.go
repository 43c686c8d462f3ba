package comm

import "sync"

// FrameBuffer accumulates framed messages into one reusable contiguous
// buffer — the write-path complement of ReadFrame. A participant's steady
// state is dominated by chunked upload bodies (begin frame, dozens of chunk
// frames, end frame) built per client per round; building them into a pooled
// FrameBuffer instead of fresh slices keeps the write path allocation-free
// once the pool is warm, which the alloc pins in framebuf_test.go hold it to.
type FrameBuffer struct {
	buf []byte
}

// Reset empties the buffer, keeping its capacity.
func (b *FrameBuffer) Reset() { b.buf = b.buf[:0] }

// Append frames one message onto the end of the buffer.
func (b *FrameBuffer) Append(t MsgType, payload []byte) {
	b.buf = AppendFrame(b.buf, t, payload)
}

// AppendPredictions frames preds as one message, encoding them straight into
// the buffer: the bytes of Append(t, EncodePredictions(preds)).
func (b *FrameBuffer) AppendPredictions(t MsgType, preds []Prediction) {
	b.buf = AppendPredictions(appendHeader(b.buf, t, len(preds)*PredictionWireSize), preds)
}

// Bytes returns the accumulated frames. The slice aliases the buffer: it is
// valid until the next Append/Reset, and must not be retained after
// PutFrameBuffer.
func (b *FrameBuffer) Bytes() []byte { return b.buf }

var framePool = sync.Pool{New: func() any { return new(FrameBuffer) }}

// GetFrameBuffer returns an empty frame buffer from the pool.
func GetFrameBuffer() *FrameBuffer {
	b := framePool.Get().(*FrameBuffer)
	b.Reset()
	return b
}

// PutFrameBuffer recycles a frame buffer. The caller must be done with every
// slice obtained from Bytes — including anything still referenced by an
// in-flight writer (an HTTP client can re-read a request body for a retry,
// so return the buffer only after the response is fully handled).
func PutFrameBuffer(b *FrameBuffer) {
	if b != nil {
		framePool.Put(b)
	}
}
