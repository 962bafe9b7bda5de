package rme_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rme "github.com/rmelib/rme"
)

// Contract tests for the single cancellable passage each backend runs:
// Lock is LockDone with a nil done, an abandoned fresh passage is left as
// a crash at its wait, and a recovery passage ignores done. The names
// start with TestAbort so the CI race matrix's keyed regex covers them.

// passageLock is the surface the contract is stated over.
type passageLock interface {
	Lock(port int)
	LockDone(port int, done <-chan struct{}) bool
	Unlock(port int)
	Held(port int) bool
	SetCrashFunc(fn rme.CrashFunc)
}

// passageBackends builds each backend with four ports. Ports 0 and 1
// contend at the first step of every shape (the tree's leaf node holds
// both). crashAt is a point, hit by port 1 just before it waits behind
// port 0, whose recovery must wait too.
var passageBackends = []struct {
	name    string
	mk      func() passageLock
	crashAt string
}{
	{"flat", func() passageLock { return rme.New(4, rme.WithNodePool(true)) }, "L25"},
	{"mcs", func() passageLock { return rme.NewMCS(4) }, "M.wait"},
	{"tree", func() passageLock { return rme.NewTree(4, rme.WithNodePool(true)) }, "L25"},
}

// closedDone is a cancellation channel that has already fired.
func closedDone() <-chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}

// lockAsync runs LockDone(port, done) on its own goroutine and returns the
// channel its result arrives on.
func lockAsync(m passageLock, port int, done <-chan struct{}) <-chan bool {
	res := make(chan bool, 1)
	go func() { res <- m.LockDone(port, done) }()
	return res
}

// mustStayBlocked fails if res delivers within a short grace period.
func mustStayBlocked(t *testing.T, res <-chan bool, what string) {
	t.Helper()
	select {
	case ok := <-res:
		t.Fatalf("%s returned %v while port 0 still held the lock", what, ok)
	case <-time.After(20 * time.Millisecond):
	}
}

// mustReturn waits for res and returns the result.
func mustReturn(t *testing.T, res <-chan bool, what string) bool {
	t.Helper()
	select {
	case ok := <-res:
		return ok
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
		return false
	}
}

func TestAbortPassageContract(t *testing.T) {
	for _, b := range passageBackends {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Run("nil-never-cancels", func(t *testing.T) { abortPassageNil(t, b.mk()) })
			t.Run("cancel-then-recover", func(t *testing.T) { abortPassageCancel(t, b.mk()) })
			t.Run("recovery-ignores-done", func(t *testing.T) { abortPassageRecovery(t, b.mk(), b.crashAt) })
		})
	}
}

// abortPassageNil: under contention, LockDone with a nil done is Lock — it
// never returns false, and mutual exclusion holds.
func abortPassageNil(t *testing.T, m passageLock) {
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	var inCS atomic.Int32
	var failures atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if !m.LockDone(p, nil) {
					failures.Add(1)
					continue
				}
				if inCS.Add(1) != 1 {
					failures.Add(1)
				}
				inCS.Add(-1)
				m.Unlock(p)
			}
		}(p)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d nil-done passages returned false or broke mutual exclusion", n)
	}
}

// abortPassageCancel: a fresh passage queued behind a holder gives up on a
// closed done; the standard Lock/Unlock fix-up on the same port then
// recovers it, and later passages proceed.
func abortPassageCancel(t *testing.T, m passageLock) {
	m.Lock(0)
	if m.LockDone(1, closedDone()) {
		t.Fatal("contended LockDone with a closed done returned true")
	}
	if m.Held(1) {
		t.Fatal("abandoned passage reports Held")
	}
	fix := make(chan bool, 1)
	go func() { m.Lock(1); fix <- true }()
	mustStayBlocked(t, fix, "fix-up Lock")
	m.Unlock(0)
	mustReturn(t, fix, "fix-up Lock")
	if !m.Held(1) {
		t.Fatal("fix-up Lock returned without holding the CS")
	}
	m.Unlock(1)
	for _, p := range []int{1, 0, 2} {
		if !mustReturn(t, lockAsync(m, p, nil), "passage after the fix-up") {
			t.Fatalf("port %d: passage after the fix-up returned false", p)
		}
		m.Unlock(p)
	}
}

// abortPassageRecovery: a port that crashed mid-acquire runs its recovery
// to completion even when handed a closed done — recovery is not
// cancellable — and returns true holding the CS.
func abortPassageRecovery(t *testing.T, m passageLock, crashAt string) {
	m.Lock(0)
	var fired atomic.Bool
	m.SetCrashFunc(func(port int, point string) bool {
		return port == 1 && point == crashAt && fired.CompareAndSwap(false, true)
	})
	crashed := func() (c bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := rme.AsCrash(r); !ok {
					panic(r)
				}
				c = true
			}
		}()
		m.Lock(1)
		return false
	}()
	m.SetCrashFunc(nil)
	if !crashed {
		t.Fatalf("port 1 did not crash at %s", crashAt)
	}
	res := lockAsync(m, 1, closedDone())
	mustStayBlocked(t, res, "recovery LockDone with a closed done")
	m.Unlock(0)
	if !mustReturn(t, res, "recovery LockDone") {
		t.Fatal("recovery LockDone with a closed done returned false")
	}
	if !m.Held(1) {
		t.Fatal("recovery LockDone returned true without holding the CS")
	}
	m.Unlock(1)
	if !mustReturn(t, lockAsync(m, 0, nil), "passage after recovery") {
		t.Fatal("passage after recovery returned false")
	}
	m.Unlock(0)
}
