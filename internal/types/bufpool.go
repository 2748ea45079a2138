package types

import "sync"

// Scratch-buffer pool for the WAL's record framing, so steady-state
// journaling allocates nothing. A pooled buffer is strictly scratch: its
// bytes must be fully consumed (copied, or written to a bufio.Writer)
// before PutBuffer, and it must never be handed to DecodeMessageInPlace,
// which retains its input.

const (
	// bufPoolInitCap sizes fresh pool buffers to hold a typical vote or
	// certificate frame without growing.
	bufPoolInitCap = 4 << 10
	// bufPoolMaxCap caps what PutBuffer retains, so one multi-megabyte
	// block doesn't pin its footprint in the pool forever.
	bufPoolMaxCap = 1 << 20
)

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, bufPoolInitCap)
		return &b
	},
}

// GetBuffer returns a pooled scratch buffer with zero length and at
// least bufPoolInitCap capacity. Pass it back with PutBuffer.
func GetBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuffer returns a scratch buffer to the pool. The caller must not
// touch the slice (or anything aliasing it) afterwards.
func PutBuffer(b *[]byte) {
	if cap(*b) > bufPoolMaxCap {
		return // let oversized one-offs be collected
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}
