package wait

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChainWakeOne: one Wake unblocks exactly one of several waiters, in
// FIFO order of registration.
func TestChainWakeOne(t *testing.T) {
	var c Chain
	var released atomic.Bool
	done := make(chan int, 3)
	for i := 0; i < 3; i++ {
		i := i
		go func() {
			c.WaitDone(Yield(), released.Load, nil)
			done <- i
		}()
		// Registration (the count increment) happens before the waiter can
		// sleep, so the next spawn observes a fixed FIFO position.
		waitFor(t, "registration", func() bool { return c.Waiters() == i+1 })
	}
	for i := 0; i < 3; i++ {
		c.Wake()
		select {
		case w := <-done:
			if w != i {
				t.Fatalf("wake %d reached waiter %d, want FIFO order", i, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("wake %d lost", i)
		}
	}
}

// TestChainCancel: a waiter whose condition turns true right after
// registration cancels itself without consuming anyone else's wake.
func TestChainCancel(t *testing.T) {
	var c Chain
	var cond atomic.Bool
	cond.Store(true)
	// cond already true: WaitDone must return immediately and leave the chain
	// empty.
	c.WaitDone(Yield(), cond.Load, nil)
	if c.Waiters() != 0 {
		t.Fatalf("canceled waiter left the chain at %d waiters", c.Waiters())
	}
	// A Wake on the now-empty chain must not panic or block.
	c.Wake()
}

// TestChainNoLostWakeStorm is the contract test: total wakes handed out
// equals total waits unblocked, under heavy concurrency. Workers loop on a
// semaphore-like permit counter; every release wakes one waiter.
func TestChainNoLostWakeStorm(t *testing.T) {
	const workers = 16
	const itersPerWorker = 300
	var c Chain
	var permits atomic.Int64
	permits.Store(2)
	tryTake := func() bool {
		for {
			p := permits.Load()
			if p <= 0 {
				return false
			}
			if permits.CompareAndSwap(p, p-1) {
				return true
			}
		}
	}
	free := func() bool { return permits.Load() > 0 }
	var inside atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < itersPerWorker; i++ {
				for !tryTake() {
					c.WaitDone(SpinThenPark(8), free, nil)
				}
				if n := inside.Add(1); n > 2 {
					t.Errorf("%d holders of a 2-permit semaphore", n)
				}
				inside.Add(-1)
				permits.Add(1)
				c.Wake()
			}
		}()
	}
	donech := make(chan struct{})
	go func() { wg.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-time.After(60 * time.Second):
		t.Fatal("storm deadlocked: a wake was lost")
	}
	if c.Waiters() != 0 {
		t.Fatalf("%d waiters left registered after the storm", c.Waiters())
	}
}

// TestChainWakeDrainsAll: repeated Wakes unblock every registered waiter
// (the reclaim sweep's one-wake-per-freed-port pattern).
func TestChainWakeDrainsAll(t *testing.T) {
	const n = 8
	var c Chain
	var released atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !released.Load() {
				c.WaitDone(Yield(), released.Load, nil)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Waiters() != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters registered", c.Waiters(), n)
		}
		time.Sleep(time.Millisecond)
	}
	released.Store(true)
	for i := 0; i < n; i++ {
		c.Wake()
	}
	donech := make(chan struct{})
	go func() { wg.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-time.After(10 * time.Second):
		t.Fatal("a waiter was stranded after n Wakes")
	}
}

// TestChainZeroAllocSteadyState: once the free list holds the high-water
// mark of nodes, a wait/wake round trip allocates nothing.
func TestChainZeroAllocSteadyState(t *testing.T) {
	var c Chain
	var cond atomic.Bool
	st := Yield()
	// Warm: one registration creates the node.
	cond.Store(true)
	c.WaitDone(st, cond.Load, nil)
	if avg := testing.AllocsPerRun(200, func() {
		c.WaitDone(st, cond.Load, nil) // cancels immediately; node recycled
	}); avg != 0 {
		t.Fatalf("steady-state chain wait allocs = %v, want 0", avg)
	}
	// And a real sleep/wake round trip, driven from a second goroutine.
	cond.Store(false)
	stop := make(chan struct{})
	var wakes atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c.Waiters() > 0 {
				cond.Store(true)
				c.Wake()
				wakes.Add(1)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	if avg := testing.AllocsPerRun(50, func() {
		cond.Store(false)
		for !cond.Load() {
			c.WaitDone(st, cond.Load, nil)
		}
	}); avg != 0 {
		t.Fatalf("sleep/wake round trip allocs = %v, want 0", avg)
	}
	close(stop)
}
