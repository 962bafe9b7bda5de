package rme

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/rmelib/rme/internal/wait"
)

// White-box tests for the unexported runtime building blocks: the Signal
// object port and the recoverable tournament lock port.

func signalStrategies() []wait.Strategy {
	return []wait.Strategy{wait.Yield(), wait.Spin(), wait.SpinThenPark(8)}
}

func TestSignalSetThenWait(t *testing.T) {
	for _, st := range signalStrategies() {
		t.Run(st.String(), func(t *testing.T) {
			var s signal
			s.set()
			done := make(chan struct{})
			go func() {
				s.waitDone(st, nil)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("wait() after set() did not return")
			}
		})
	}
}

func TestSignalWaitThenSet(t *testing.T) {
	for _, st := range signalStrategies() {
		t.Run(st.String(), func(t *testing.T) {
			var s signal
			done := make(chan struct{})
			go func() {
				s.waitDone(st, nil)
				close(done)
			}()
			select {
			case <-done:
				t.Fatal("wait() returned before set()")
			case <-time.After(20 * time.Millisecond):
			}
			s.set()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("wait() never released after set()")
			}
		})
	}
}

func TestSignalReExecutedWaitAfterAbandonment(t *testing.T) {
	// A waiter "crashes" (abandons its published spin word); the
	// re-executed wait must still be released by a later set. This is the
	// paper's fresh-boolean-per-wait property (Figure 2, line 5).
	for _, st := range signalStrategies() {
		t.Run(st.String(), func(t *testing.T) {
			var s signal
			abandoned := make(chan struct{})
			go func() {
				// Simulate the pre-crash prefix of wait(): open the
				// episode, then die without sleeping.
				s.cell.Begin(st)
				close(abandoned)
			}()
			<-abandoned
			done := make(chan struct{})
			go func() {
				s.waitDone(st, nil) // the recovered process re-executes wait()
				close(done)
			}()
			time.Sleep(10 * time.Millisecond)
			s.set()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("re-executed wait() was not released")
			}
		})
	}
}

func TestSignalForceSet(t *testing.T) {
	var s signal
	s.forceSet()
	if !s.isSet() {
		t.Fatal("forceSet did not set")
	}
	s.waitDone(wait.Yield(), nil) // must return immediately (same goroutine: would hang otherwise)
}

func TestRLockMutualExclusion(t *testing.T) {
	const ports, iters = 8, 300
	m := New(ports) // provides the crash hook plumbing for rlock
	counter := 0    // race detector referee
	var inside atomic.Int32
	var wg sync.WaitGroup
	for p := 0; p < ports; p++ {
		wg.Add(1)
		go func(port int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.rl.lock(m, port)
				if inside.Add(1) != 1 {
					t.Errorf("two ports inside the rlock CS")
				}
				counter++
				inside.Add(-1)
				m.rl.unlock(m, port)
			}
		}(p)
	}
	wg.Wait()
	if counter != ports*iters {
		t.Fatalf("counter = %d, want %d", counter, ports*iters)
	}
}

func TestRLockCSRStage(t *testing.T) {
	m := New(2)
	m.rl.lock(m, 0)
	// Simulate a crash while holding: a fresh lock call on the same port
	// must return immediately (stage = inCS).
	done := make(chan struct{})
	go func() {
		m.rl.lock(m, 0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("rlock CSR re-entry blocked")
	}
	m.rl.unlock(m, 0)
}

func TestRLockExitReplayAfterCrash(t *testing.T) {
	// Crash mid-exit (stage exiting, flags partially cleared), then a new
	// lock call must replay the exit and acquire afresh — while a rival
	// also gets its turn.
	m := New(2)
	m.rl.lock(m, 0)
	m.rl.stage[0].Store(rlExiting) // crashed just after declaring the exit

	acquired := make(chan int, 2)
	go func() {
		m.rl.lock(m, 1)
		acquired <- 1
		m.rl.unlock(m, 1)
	}()
	go func() {
		m.rl.lock(m, 0) // replays the exit, then climbs
		acquired <- 0
		m.rl.unlock(m, 0)
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-acquired:
		case <-time.After(5 * time.Second):
			t.Fatal("exit replay deadlocked the rlock")
		}
	}
}

func TestMaximalQPathsShapes(t *testing.T) {
	a, b, c, d := new(qnode), new(qnode), new(qnode), new(qnode)
	sc := newRepairScratch(4)
	sc.reset()
	for _, v := range []*qnode{a, b, c, d} {
		sc.vertices[v] = struct{}{}
	}
	sc.out[a] = b // a -> b -> c, d isolated
	sc.out[b] = c
	paths := sc.maximalPaths()
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	for _, p := range paths {
		switch p[0] {
		case a:
			if len(p) != 3 || p[2] != c {
				t.Fatalf("chain path wrong: %v", p)
			}
		case d:
			if len(p) != 1 {
				t.Fatalf("singleton path wrong: %v", p)
			}
		default:
			t.Fatalf("unexpected path start")
		}
	}
}

// TestAsyncPrewarmPerShard pins WithAsyncPrewarm's per-shard guarantee:
// every shard's free list gets the full n request nodes (each with its
// reusable cap-1 grant channel) and the dispatcher pool's full worker
// complement is spawned eagerly, so the submit side of a stripe's very
// first request allocates nothing. The pre-fix round-robin left shards
// with no nodes whenever n < Shards(), silently breaking the
// first-request claim on the unwarmed stripes.
func TestAsyncPrewarmPerShard(t *testing.T) {
	const shards, n = 8, 3
	tbl := NewLockTable(shards, 2, WithAsyncPrewarm(n), WithNodePool(true))
	defer tbl.Close()
	for i := range tbl.shards {
		sh := &tbl.shards[i]
		count := 0
		sh.reqMu.Lock()
		for r := sh.reqFree; r != nil; r = r.next {
			if r.ch == nil || cap(r.ch) != 1 {
				sh.reqMu.Unlock()
				t.Fatalf("shard %d: prewarmed node without a usable grant channel", i)
			}
			count++
		}
		sh.reqMu.Unlock()
		if count != n {
			t.Fatalf("shard %d prewarmed %d request nodes, want %d on every shard", i, count, n)
		}
	}
	if got, want := tbl.exec.spawned.Load(), tbl.exec.bound; got != want {
		t.Fatalf("prewarm spawned %d pool workers, want the full bound %d", got, want)
	}
	// Let the eagerly-spawned workers reach their idle parks (the first
	// park lazily creates each chain cell's reusable channel) so the
	// measurement below sees only the request-node path.
	time.Sleep(20 * time.Millisecond)
	if avg := testing.AllocsPerRun(50, func() {
		for i := range tbl.shards {
			r := tbl.shards[i].getReq()
			tbl.shards[i].putReq(r)
		}
	}); avg != 0 {
		t.Fatalf("prewarmed request-node path allocs = %v, want 0", avg)
	}
}

// TestShardStrategyHook pins WithShardStrategy's wiring: a non-nil hook
// result overrides the table-wide strategy for exactly that shard's lock
// and lease pool, a nil result keeps the default, and the override
// reaches every tree node when the shard backend is the arbitration tree.
func TestShardStrategyHook(t *testing.T) {
	tbl := NewLockTable(3, 2,
		WithWaitStrategy(YieldWaitStrategy()),
		WithShardStrategy(func(shard int) WaitStrategy {
			if shard == 1 {
				return SpinWaitStrategy()
			}
			return nil
		}))
	want := []string{"yield", "spin", "yield"}
	for i := range tbl.shards {
		if got := tbl.shards[i].m.(*Mutex).strat.String(); got != want[i] {
			t.Errorf("shard %d lock strategy = %s, want %s", i, got, want[i])
		}
		if got := tbl.shards[i].pool.strat.String(); got != want[i] {
			t.Errorf("shard %d lease strategy = %s, want %s", i, got, want[i])
		}
	}

	tree := NewLockTable(2, 8,
		WithShardBackend(TreeBackend),
		WithShardStrategy(func(shard int) WaitStrategy {
			if shard == 0 {
				return SpinParkWaitStrategy(16)
			}
			return nil
		}))
	wantTree := []string{"spinpark", "yield"}
	for i := range tree.shards {
		tm := tree.shards[i].m.(*TreeMutex)
		for l, level := range tm.nodes {
			for g, node := range level {
				if got := node.strat.String(); got != wantTree[i] {
					t.Errorf("tree shard %d node [%d][%d] strategy = %s, want %s", i, l, g, got, wantTree[i])
				}
			}
		}
	}
}

// TestPaddedLayout pins the cache-line padding contract of the hot shared
// arrays: one slot must never share a (prefetcher-paired) line with its
// neighbor. If a field is added to one of these types, grow its pad.
func TestPaddedLayout(t *testing.T) {
	if s := unsafe.Sizeof(paddedInt32{}); s%cacheLineSize != 0 {
		t.Errorf("paddedInt32 size %d not a multiple of %d", s, cacheLineSize)
	}
	if s := unsafe.Sizeof(paddedInt64{}); s%cacheLineSize != 0 {
		t.Errorf("paddedInt64 size %d not a multiple of %d", s, cacheLineSize)
	}
	if s := unsafe.Sizeof(paddedUint64{}); s%cacheLineSize != 0 {
		t.Errorf("paddedUint64 size %d not a multiple of %d", s, cacheLineSize)
	}
	if s := unsafe.Sizeof(rlockNode{}); s%cacheLineSize != 0 {
		t.Errorf("rlockNode size %d not a multiple of %d", s, cacheLineSize)
	}
	if s := unsafe.Sizeof(portSlot{}); s%cacheLineSize != 0 {
		t.Errorf("portSlot size %d not a multiple of %d", s, cacheLineSize)
	}
	if s := unsafe.Sizeof(leaseSlot{}); s%cacheLineSize != 0 {
		t.Errorf("leaseSlot size %d not a multiple of %d", s, cacheLineSize)
	}
}

// TestTreeLayout pins TreeMutex's memory layout: the per-process phase
// words must occupy one full padded cache line each (so neighboring
// processes' passage bookkeeping cannot false-share), and the per-process
// path table rows must exist for every (proc, level).
func TestTreeLayout(t *testing.T) {
	tm := NewTree(9)
	if s := unsafe.Sizeof(tm.phase[0]); s%cacheLineSize != 0 {
		t.Errorf("phase element size %d not a multiple of %d", s, cacheLineSize)
	}
	// The stride between adjacent phase words is the padded element size:
	// no two processes' phase words may share a line pair.
	stride := uintptr(unsafe.Pointer(&tm.phase[1])) - uintptr(unsafe.Pointer(&tm.phase[0]))
	if stride != unsafe.Sizeof(paddedInt64{}) {
		t.Errorf("phase stride %d, want %d", stride, unsafe.Sizeof(paddedInt64{}))
	}
	if stride < cacheLineSize {
		t.Errorf("phase stride %d below cache line %d", stride, cacheLineSize)
	}
	if len(tm.path) != tm.n {
		t.Fatalf("path table has %d rows, want %d", len(tm.path), tm.n)
	}
	for p, row := range tm.path {
		if len(row) != tm.levels {
			t.Fatalf("path[%d] has %d steps, want %d", p, len(row), tm.levels)
		}
	}
}

// TestTreePathTable cross-checks the precomputed path table against the
// position arithmetic it replaced: node index proc/arity^(l+1), port
// (proc/arity^l) mod arity.
func TestTreePathTable(t *testing.T) {
	for _, n := range []int{1, 2, 3, 9, 16, 64, 100} {
		tm := NewTree(n)
		for p := 0; p < n; p++ {
			div := 1
			for l := 0; l < tm.levels; l++ {
				wantNode := tm.nodes[l][p/(div*tm.arity)]
				wantPort := (p / div) % tm.arity
				got := tm.path[p][l]
				if got.m != wantNode || got.port != wantPort {
					t.Fatalf("n=%d path[%d][%d] = (%p,%d), want (%p,%d)",
						n, p, l, got.m, got.port, wantNode, wantPort)
				}
				div *= tm.arity
			}
		}
	}
}

// TestDispatchRunQueueWaitsForMidRelease pins the run queue's false
// "overflow": a dequeuer that has advanced head but not yet stored its
// slot's release sequence leaves the slot reading as taken, and an enqueue
// that wraps onto it must wait for that store instead of calling the ring
// full. The dequeue is done by hand here, stopped between its two steps.
func TestDispatchRunQueueWaitsForMidRelease(t *testing.T) {
	var q runQueue
	q.init(4)
	sh := make([]lockShard, 5)
	q.enqueue(&sh[0])
	q.enqueue(&sh[1])

	pos := q.head.Load()
	slot := &q.slots[pos&q.mask]
	if slot.seq.Load() != pos+1 || !q.head.CompareAndSwap(pos, pos+1) {
		t.Fatal("could not claim the head slot")
	}
	if slot.sh != &sh[0] {
		t.Fatal("head slot does not hold the first stripe")
	}

	// Three of four slots are occupied; the fifth enqueue wraps onto the
	// slot whose release is still pending.
	q.enqueue(&sh[2])
	q.enqueue(&sh[3])
	res := make(chan any, 1)
	go func() {
		defer func() { res <- recover() }()
		q.enqueue(&sh[4])
	}()
	select {
	case r := <-res:
		t.Fatalf("enqueue onto a slot mid-release returned before the release (panic: %v)", r)
	case <-time.After(20 * time.Millisecond):
	}

	slot.sh = nil
	slot.seq.Store(pos + q.mask + 1) // the dequeuer's release store lands
	select {
	case r := <-res:
		if r != nil {
			t.Fatalf("enqueue panicked: %v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("enqueue did not complete after the release landed")
	}
	for i := 1; i <= 4; i++ {
		if got := q.dequeue(); got != &sh[i] {
			t.Fatalf("dequeue %d: got stripe %p, want %p", i, got, &sh[i])
		}
	}
	if got := q.dequeue(); got != nil {
		t.Fatalf("queue not empty after four dequeues: %p", got)
	}
}
