package rme

import (
	"sync/atomic"
	"unsafe"
)

// cacheLineSize is the padding granularity for hot shared arrays: 128
// bytes covers the usual 64-byte line plus the adjacent-line spatial
// prefetcher on common x86 parts, so two neighboring array slots never
// ping-pong a line (or a prefetched pair) between writers.
//
// Pads are computed from unsafe.Sizeof (a constant expression) rather
// than literal word sizes so the layouts hold on 32-bit targets too;
// TestPaddedLayout pins the invariant.
const cacheLineSize = 128

// paddedInt32 is an atomic.Int32 alone on its cache line(s). Used for
// per-port words that different ports write concurrently (rlock stages).
type paddedInt32 struct {
	atomic.Int32
	_ [cacheLineSize - unsafe.Sizeof(atomic.Int32{})%cacheLineSize]byte
}

// paddedInt64 is an atomic.Int64 alone on its cache line(s). Used for the
// tree's per-process phase words, which each process writes on every
// passage while its neighbors do the same.
type paddedInt64 struct {
	atomic.Int64
	_ [cacheLineSize - unsafe.Sizeof(atomic.Int64{})%cacheLineSize]byte
}

// paddedUint64 is an atomic.Uint64 alone on its cache line(s). Used for
// a stripe's holder word, which every passage of the stripe writes.
type paddedUint64 struct {
	atomic.Uint64
	_ [cacheLineSize - unsafe.Sizeof(atomic.Uint64{})%cacheLineSize]byte
}
