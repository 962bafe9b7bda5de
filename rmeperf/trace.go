package main

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"
)

// Span names: one per public call the benchmark makes, plus the critical
// section, the root of each passage, and the wait wrapper's sleeps.
const (
	spPassage uint8 = iota
	spLock
	spUnlock
	spLockCtx
	spBatch
	spDo
	spCS
	spSubmit
	spCallback
	spCheckpoint
	spRestore
	spReclaim
	spProbe
	spSleep
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"passage", "table.Lock", "table.Unlock", "table.LockContext", "table.DoBatch",
	"table.Do", "cs", "table.LockAsyncFunc", "grant.callback", "table.Checkpoint",
	"RestoreTable", "table.Reclaim", "probe.Lock", "wait.Sleep",
}

// span is one timed call. Spans of one passage share op; parent indexes
// the enclosing span in the same buffer (-1 for a root).
type span struct {
	start, end int64
	op         uint64
	parent     int32
	name       uint8
}

var epoch = time.Now()

// now is monotonic nanoseconds since the process started.
func now() int64 { return int64(time.Since(epoch)) }

// spanBuf is one goroutine's preallocated span buffer. Spans past its
// capacity are not recorded, so tracing never allocates.
type spanBuf struct {
	spans []span
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]span, 0, capacity)} }

// begin opens a span and returns its index, or -1 when the buffer is full
// (or b is nil: tracing off).
func (b *spanBuf) begin(name uint8, op uint64, parent int32) int32 {
	if b == nil {
		return -1
	}
	if len(b.spans) == cap(b.spans) {
		return -1
	}
	b.spans = append(b.spans, span{start: now(), op: op, parent: parent, name: name})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(i int32) {
	if i >= 0 {
		b.spans[i].end = now()
	}
}

// add records an already timed span.
func (b *spanBuf) add(s span) {
	if b == nil {
		return
	}
	if len(b.spans) == cap(b.spans) {
		return
	}
	b.spans = append(b.spans, s)
}

// sharedBuf is a span buffer many goroutines append to, for callers that
// cannot carry a per-goroutine buffer (the wait wrapper). Its spans are
// roots: a sleep cannot name the call that caused it.
type sharedBuf struct {
	spans []span
	n     atomic.Int64
}

func newSharedBuf(capacity int) *sharedBuf { return &sharedBuf{spans: make([]span, capacity)} }

func (b *sharedBuf) add(name uint8, start, end int64) {
	i := b.n.Add(1) - 1
	if i < int64(len(b.spans)) {
		b.spans[i] = span{start: start, end: end, parent: -1, name: name}
	}
}

func (b *sharedBuf) recorded() []span {
	return b.spans[:min(b.n.Load(), int64(len(b.spans)))]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once; child time outside the parent is ignored).
func selfTimes(spans []span) []int64 {
	// Group children by parent with a counting sort: kids[first[p]:first[p+1]]
	// are the children of span p.
	first := make([]int32, len(spans)+1)
	for _, s := range spans {
		if s.parent >= 0 {
			first[s.parent+1]++
		}
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	kids := make([]int32, first[len(spans)])
	fill := slices.Clone(first[:len(spans)])
	for i, s := range spans {
		if s.parent >= 0 {
			kids[fill[s.parent]] = int32(i)
			fill[s.parent]++
		}
	}
	out := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		out[i] = s.end - s.start
		iv = iv[:0]
		for _, k := range kids[first[i]:first[i+1]] {
			a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		if len(iv) == 0 {
			continue
		}
		slices.SortFunc(iv, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
		covered, curA, curB := int64(0), iv[0][0], iv[0][1]
		for _, v := range iv[1:] {
			if v[0] > curB {
				covered += curB - curA
				curA, curB = v[0], v[1]
				continue
			}
			curB = max(curB, v[1])
		}
		covered += curB - curA
		out[i] -= covered
	}
	return out
}

// spanSet is every span one traced run recorded, with self times.
type spanSet struct {
	spans []span
	self  []int64
}

func collectSpans(bufs []*spanBuf) spanSet {
	var all []span
	for _, b := range bufs {
		base := int32(len(all))
		for _, s := range b.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			all = append(all, s)
		}
	}
	return spanSet{spans: all, self: selfTimes(all)}
}

// writeSpans dumps spans as fixed 32-byte little-endian records (start,
// end, op, parent, name, 3 bytes pad) after a header line naming the span
// kinds.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "rmeperf-spans v1 %q\n", spanNames)
	var rec [32]byte
	for _, s := range spans {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
		binary.LittleEndian.PutUint64(rec[16:], s.op)
		binary.LittleEndian.PutUint32(rec[24:], uint32(s.parent))
		rec[28] = s.name
		w.Write(rec[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
