package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rmelib/rme"
)

// doBudget is how long one Do may take, crash retries and reclaim sweeps
// included, before it counts as failed.
const doBudget = time.Second

// work is the critical section's fixed compute: iters dependent xorshift
// steps, the same on every run and every target.
func work(x uint64, iters int) uint64 {
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// target runs one passage: it acquires the passage's keys, calls w.cs
// once per key while holding them, and releases them. It reports false
// when the passage failed (shed, or over its budget).
type target interface {
	pass(w *worker, p *passage) bool
}

// worker is one load goroutine's state: its key stream, counters, latency
// sample and span buffer, and callbacks built once so that passing them
// to the library allocates nothing.
type worker struct {
	stream  []passage
	pos     int
	ref     *referee
	stripe  func(uint64) int
	csIters int
	sink    uint64

	ops, failed uint64
	port        int    // this worker's port on a bare backend rung
	tries       uint64 // lease rung: TryAcquire calls
	misses      uint64 // lease rung: TryAcquire misses

	every uint64 // sample one passage in every
	n     uint64
	t0    int64 // call time of the passage being sampled, 0 if none
	lat   *reservoir

	tb     *spanBuf // nil: tracing off
	opID   uint64
	parent int32

	ctx       context.Context
	cur       uint64
	doFn      func()
	batchFn   func(uint64)
	asyncFn   func(rme.Grant)
	asyncDone chan struct{}
}

func newWorker(stream []passage, ref *referee, stripe func(uint64) int, csIters int) *worker {
	w := &worker{stream: stream, ref: ref, stripe: stripe, csIters: csIters, every: 16, parent: -1}
	w.ctx = context.Background()
	w.doFn = func() { w.cs(w.cur) }
	w.batchFn = func(k uint64) { w.cs(k) }
	w.asyncDone = make(chan struct{}, 1)
	w.asyncFn = func(g rme.Grant) {
		w.csUntraced(g.Key())
		g.Unlock()
		w.asyncDone <- struct{}{}
	}
	return w
}

// cs is the critical section: the grant-latency sample (first key of a
// sampled passage), the referee's occupancy CAS pair and the compute.
func (w *worker) cs(key uint64) {
	sp := w.tb.begin(spCS, w.opID, w.parent)
	w.csUntraced(key)
	w.tb.end(sp)
}

func (w *worker) csUntraced(key uint64) {
	if w.t0 != 0 {
		w.lat.add(now() - w.t0)
		w.t0 = 0
	}
	s := w.stripe(key)
	w.ref.enter(s)
	w.sink = work(w.sink^key, w.csIters)
	w.ref.leave(s)
}

func (w *worker) run(tgt target, stop *atomic.Bool) {
	for !stop.Load() {
		p := &w.stream[w.pos]
		if w.pos++; w.pos == len(w.stream) {
			w.pos = 0
		}
		w.opID++
		root := w.tb.begin(spPassage, w.opID, -1)
		w.parent = root
		if w.n++; w.lat != nil && w.n%w.every == 0 {
			w.t0 = now()
		}
		if tgt.pass(w, p) {
			w.ops += uint64(p.nkeys())
		} else {
			w.failed += uint64(p.nkeys())
			w.t0 = 0
		}
		w.tb.end(root)
	}
}

// tableTarget drives a LockTable through the passage's entry point.
type tableTarget struct{ t *rme.LockTable }

func (tt tableTarget) pass(w *worker, p *passage) bool {
	t, k := tt.t, p.keys[0]
	switch p.kind {
	case kLock:
		sp := w.tb.begin(spLock, w.opID, w.parent)
		t.Lock(k)
		w.tb.end(sp)
	case kCtx:
		sp := w.tb.begin(spLockCtx, w.opID, w.parent)
		err := t.LockContext(w.ctx, k)
		w.tb.end(sp)
		if err != nil {
			return false
		}
	case kBatch:
		sp := w.tb.begin(spBatch, w.opID, w.parent)
		w.parent = sp
		t.DoBatch(p.keys[:], w.batchFn)
		w.tb.end(sp)
		return true
	case kDo:
		sp := w.tb.begin(spDo, w.opID, w.parent)
		w.parent = sp
		w.cur = k
		start := now()
		t.Do(k, w.doFn)
		w.tb.end(sp)
		return time.Duration(now()-start) <= doBudget
	}
	w.cs(k)
	sp := w.tb.begin(spUnlock, w.opID, w.parent)
	t.Unlock(k)
	w.tb.end(sp)
	return true
}

// asyncTarget is a closed-loop async passage: submit with LockAsyncFunc,
// then wait for the callback to run the critical section and unlock.
type asyncTarget struct{ t *rme.LockTable }

func (at asyncTarget) pass(w *worker, p *passage) bool {
	sp := w.tb.begin(spSubmit, w.opID, w.parent)
	at.t.LockAsyncFunc(p.keys[0], w.asyncFn)
	w.tb.end(sp)
	<-w.asyncDone
	return true
}

// refTarget is the plain-lock reference: one sync.Mutex per stripe under
// the table's own stripe map, so it serializes exactly the passages the
// table serializes. Multi-key passages lock their stripes in ascending
// order, each once.
type refTarget struct {
	mu     []paddedMutex
	stripe func(uint64) int
}

type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

func newRefTarget(stripes int, stripe func(uint64) int) refTarget {
	return refTarget{mu: make([]paddedMutex, stripes), stripe: stripe}
}

func (rt refTarget) pass(w *worker, p *passage) bool {
	if p.kind != kBatch {
		k := p.keys[0]
		s := rt.stripe(k)
		rt.mu[s].Lock()
		w.cs(k)
		rt.mu[s].Unlock()
		return true
	}
	var ks [batchKeys]uint64
	var ss [batchKeys]int
	for i, k := range p.keys {
		s := rt.stripe(k)
		j := i
		for ; j > 0 && (ss[j-1] > s || ss[j-1] == s && ks[j-1] > k); j-- {
			ks[j], ss[j] = ks[j-1], ss[j-1]
		}
		ks[j], ss[j] = k, s
	}
	for i, s := range ss {
		if i == 0 || ss[i-1] != s {
			rt.mu[s].Lock()
		}
	}
	for _, k := range ks {
		w.cs(k)
	}
	for i := len(ss) - 1; i >= 0; i-- {
		if i == 0 || ss[i-1] != ss[i] {
			rt.mu[ss[i]].Unlock()
		}
	}
	return true
}

// block is one timed stretch of a phase: every worker runs its passages
// against one target until the stop flag.
type block struct {
	ops, failed uint64
	wall        int64 // ns
}

func (b block) nsPerOp() float64 { return float64(b.wall) / float64(max(b.ops, 1)) }
func (b block) opsPerS() float64 { return float64(b.ops) / (float64(b.wall) / 1e9) }

// runBlock runs ws against tgt for about dur. poll, if non-nil, is called
// every couple of milliseconds while the block runs (traced runs sample
// gauges with it).
func runBlock(tgt target, ws []*worker, dur time.Duration, poll func()) block {
	var stop atomic.Bool
	var wg sync.WaitGroup
	ops0, failed0 := make([]uint64, len(ws)), make([]uint64, len(ws))
	for i, w := range ws {
		ops0[i], failed0[i] = w.ops, w.failed
	}
	start := now()
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(tgt, &stop)
		}(w)
	}
	if poll == nil {
		time.Sleep(dur)
	} else {
		for time.Duration(now()-start) < dur {
			poll()
			time.Sleep(2 * time.Millisecond)
		}
	}
	stop.Store(true)
	wg.Wait()
	b := block{wall: now() - start}
	for i, w := range ws {
		b.ops += w.ops - ops0[i]
		b.failed += w.failed - failed0[i]
	}
	return b
}
