package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"github.com/rmelib/rme"
)

// openLoop is the open-loop generator: one goroutine submits
// LockAsyncFunc requests at the due times of a seeded schedule, whatever
// the library's backlog, and each request is timed from its due time.
// Its submit path allocates nothing: requests cycle through a ring of
// slots whose callbacks are built once, and per-request records are
// preallocated for the longest step.
type openLoop struct {
	t       *rme.LockTable
	ref     *referee
	stripe  func(uint64) int
	sched   schedule
	csIters int
	recs    []asyncRec
	slots   []openSlot

	delivered atomic.Int64
}

// asyncRec is one request's timeline (ns). cb0 is set exactly once, by
// the delivering callback.
type asyncRec struct {
	due, submit0, submit1, cb1 int64
	cb0                        atomic.Int64
}

// openSlot is one ring entry: the request it currently carries (-1 when
// idle) and its prebuilt callback.
type openSlot struct {
	req  atomic.Int64
	sink uint64
	fn   func(rme.Grant)
}

const openRing = 1 << 13

func newOpenLoop(t *rme.LockTable, ref *referee, sched schedule, csIters int) *openLoop {
	o := &openLoop{t: t, ref: ref, stripe: t.ShardIndex, sched: sched, csIters: csIters,
		recs: make([]asyncRec, len(sched.at)), slots: make([]openSlot, openRing)}
	for j := range o.slots {
		sl := &o.slots[j]
		sl.req.Store(-1)
		sl.fn = func(g rme.Grant) { o.deliver(sl, g) }
	}
	return o
}

func (o *openLoop) deliver(sl *openSlot, g rme.Grant) {
	i := sl.req.Load()
	rec := &o.recs[i]
	if !rec.cb0.CompareAndSwap(0, now()) {
		o.ref.fire("async request %d granted twice", i)
	}
	if g.Key() != o.sched.keys[i] {
		o.ref.fire("async request %d granted key %#x, asked %#x", i, g.Key(), o.sched.keys[i])
	}
	s := o.stripe(g.Key())
	o.ref.enter(s)
	sl.sink = work(sl.sink^g.Key(), o.csIters)
	o.ref.leave(s)
	g.Unlock()
	rec.cb1 = now()
	sl.req.Store(-1)
	o.delivered.Add(1)
}

// step is one open-loop stretch at a fixed rate.
type step struct {
	rate       float64
	submitted  int
	undeliv    int     // not delivered within the drain deadline
	overflow   bool    // the ring wrapped onto an undelivered request
	backlogEnd int     // requests outstanding when the generator stopped
	achieved   float64 // submitted / generator time, ops/s
	lat        []int64 // due → callback, ns
	late       []int64 // due → submit, ns
	grant      []int64 // submit start → callback, ns
	recs       []asyncRec
}

// run submits the first n arrivals of the schedule at rate ops/s and
// waits (up to drain) for them to be delivered.
func (o *openLoop) run(rate float64, n int, drain time.Duration) step {
	n = min(n, len(o.recs))
	o.delivered.Store(0)
	for i := 0; i < n; i++ {
		o.recs[i].cb0.Store(0)
	}
	st := step{rate: rate}
	t0 := now()
	i := 0
	for ; i < n; i++ {
		due := t0 + o.sched.dueNs(i, rate)
		for {
			d := due - now()
			if d <= 0 {
				break
			}
			// Sleep only when far ahead: a timer wake-up can be late by
			// hundreds of microseconds, which would be charged to the
			// library as latency.
			if d > 2_000_000 {
				time.Sleep(time.Duration(d - 1_500_000))
			} else {
				runtime.Gosched()
			}
		}
		sl := &o.slots[i%openRing]
		if sl.req.Load() != -1 {
			st.overflow = true
			break
		}
		rec := &o.recs[i]
		rec.due = due
		sl.req.Store(int64(i))
		rec.submit0 = now()
		o.t.LockAsyncFunc(o.sched.keys[i], sl.fn)
		rec.submit1 = now()
	}
	genEnd := now()
	st.submitted = i
	st.backlogEnd = i - int(o.delivered.Load())
	if i > 0 {
		st.achieved = float64(i) / (float64(genEnd-t0) / 1e9)
	}
	deadline := time.Now().Add(drain)
	for int(o.delivered.Load()) < i && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	st.undeliv = i - int(o.delivered.Load())
	st.recs = o.recs[:i]
	for j := 0; j < i; j++ {
		r := &o.recs[j]
		st.late = append(st.late, r.submit0-r.due)
		if cb := r.cb0.Load(); cb != 0 {
			st.lat = append(st.lat, cb-r.due)
			st.grant = append(st.grant, cb-r.submit0)
		}
	}
	return st
}

// meets reports whether a step sustained its rate: every request
// delivered, the generator within 10% of the target, p99 latency within
// limit, and no more outstanding at the end than the limit allows in
// flight (Little's law), so the backlog was not growing.
func (st step) meets(limit time.Duration) bool {
	if st.overflow || st.undeliv > 0 || st.achieved < 0.9*st.rate {
		return false
	}
	if float64(st.backlogEnd) > st.rate*limit.Seconds()+1 {
		return false
	}
	return newDistInt(st.lat).q(0.99) <= float64(limit.Nanoseconds())
}
