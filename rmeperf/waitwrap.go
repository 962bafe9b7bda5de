package main

import "github.com/rmelib/rme"

// sleeper is the method set of rme.WaitStrategy. The waiter type belongs
// to the library's internal wait package, which this module cannot name,
// so the wrapper is generic over it and the type is inferred from the
// wrapped strategy.
type sleeper[W any] interface {
	Attach(W)
	Sleep(W)
	String() string
}

// timedStrategy records a wait.Sleep span around every Sleep and
// SleepDone of the strategy it wraps. Traced runs only.
type timedStrategy[W any] struct {
	inner sleeper[W]
	buf   *sharedBuf
}

func (s timedStrategy[W]) Attach(w W)     { s.inner.Attach(w) }
func (s timedStrategy[W]) String() string { return s.inner.String() }

func (s timedStrategy[W]) Sleep(w W) {
	t := now()
	s.inner.Sleep(w)
	s.buf.add(spSleep, t, now())
}

func (s timedStrategy[W]) SleepDone(w W, done <-chan struct{}) bool {
	t := now()
	ok := s.inner.(interface {
		SleepDone(W, <-chan struct{}) bool
	}).SleepDone(w, done)
	s.buf.add(spSleep, t, now())
	return ok
}

func timeSleeps[W any](inner sleeper[W], buf *sharedBuf) timedStrategy[W] {
	return timedStrategy[W]{inner: inner, buf: buf}
}

// timedYield is the table default (yield) wrapped with sleep timing.
func timedYield(buf *sharedBuf) rme.WaitStrategy { return timeSleeps(rme.YieldWaitStrategy(), buf) }
