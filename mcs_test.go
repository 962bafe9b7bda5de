package rme_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rme "github.com/rmelib/rme"
	"github.com/rmelib/rme/internal/xrand"
)

// TestMCSMutexMutualExclusion drives the MCS lock directly (one goroutine
// per port, the package's port discipline) with a shared-counter referee.
func TestMCSMutexMutualExclusion(t *testing.T) {
	const ports, iters = 8, 2000
	m := rme.NewMCS(ports)
	var inside atomic.Int32
	counter := 0 // guarded by m
	var wg sync.WaitGroup
	for p := 0; p < ports; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock(p)
				if inside.Add(1) != 1 {
					t.Errorf("two holders (port %d)", p)
				}
				counter++
				inside.Add(-1)
				m.Unlock(p)
			}
		}(p)
	}
	wg.Wait()
	if counter != ports*iters {
		t.Fatalf("counter = %d, want %d", counter, ports*iters)
	}
}

// TestMCSMutexMisusePanics pins the constructor and call-contract panics.
func TestMCSMutexMisusePanics(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"zero ports", func() { rme.NewMCS(0) }},
		{"too many ports", func() { rme.NewMCS(1 << 16) }},
		{"port out of range", func() { rme.NewMCS(2).Lock(2) }},
		{"unlock without lock", func() { rme.NewMCS(2).Unlock(0) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tt.fn()
		})
	}
}

// TestMCSMutexCrashReentry pins the defining RME guarantee on the MCS
// shape: a replacement caller on a port whose owner died inside the
// critical section re-enters wait-free, and the lock stays usable.
func TestMCSMutexCrashReentry(t *testing.T) {
	m := rme.NewMCS(4)
	m.Lock(1)
	if !m.Held(1) {
		t.Fatal("Held(1) false while locked")
	}
	// The "crashed" owner's replacement re-enters without waiting.
	m.Lock(1)
	if !m.Held(1) {
		t.Fatal("re-entry lost the critical section")
	}
	m.Unlock(1)
	if m.Held(1) {
		t.Fatal("Held(1) true after Unlock")
	}
	m.Lock(2)
	m.Unlock(2)
}

// crashOnceAt returns a CrashFunc that fires exactly once, at the given
// step label.
func crashOnceAt(point string) rme.CrashFunc {
	var fired atomic.Bool
	return func(port int, p string) bool {
		return p == point && fired.CompareAndSwap(false, true)
	}
}

// expectCrash runs fn and fails the test unless it panicked with an
// injected Crash.
func expectCrash(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if _, ok := rme.AsCrash(recover()); !ok {
			t.Fatal("expected an injected crash")
		}
	}()
	fn()
}

// TestLockTableMCSAcquireCrashWindows kills an uncontended acquisition at
// each of the enqueue-side crash points — before the descriptor (M.enq),
// inside it with tail already swung (M.swap), and after the phase commit
// (M.link, M.wait) — and proves the sweep reclaims the orphan and leaves
// the stripe fully usable. M.swap is the window the locked-descriptor
// design exists for: the dead worker holds the enqueue descriptor, so
// every other arrival of the stripe is stalled until the sweep runs.
func TestLockTableMCSAcquireCrashWindows(t *testing.T) {
	for _, point := range []string{"M.enq", "M.swap", "M.link", "M.wait"} {
		t.Run(point, func(t *testing.T) {
			tbl := rme.NewLockTable(2, 4, rme.WithTableSeed(11),
				rme.WithShardBackend(rme.MCSBackend))
			const key = 42
			// M.link and M.wait need a predecessor in the queue, or the
			// empty-queue enqueue skips them.
			contended := point == "M.link" || point == "M.wait"
			if contended {
				tbl.Lock(key)
			}
			tbl.SetCrashFunc(crashOnceAt(point))
			expectCrash(t, func() { tbl.Lock(key) })
			tbl.SetCrashFunc(nil)
			if got := tbl.Orphans(); got != 1 {
				t.Fatalf("Orphans = %d, want 1", got)
			}
			if contended {
				// The orphan is queued behind a live holder: its recovery
				// blocks until the holder releases, so release concurrently
				// with the sweep (the supervisor pattern ReclaimWith
				// documents).
				done := make(chan struct{})
				go func() {
					time.Sleep(20 * time.Millisecond)
					tbl.Unlock(key)
					close(done)
				}()
				if n := tbl.Reclaim(); n != 1 {
					t.Fatalf("Reclaim = %d, want 1", n)
				}
				<-done
			} else if n := tbl.Reclaim(); n != 1 {
				t.Fatalf("Reclaim = %d, want 1", n)
			}
			if !tbl.Quiesced() {
				t.Fatal("table not quiesced after the sweep")
			}
			tbl.Lock(key) // the stripe must be fully usable again
			tbl.Unlock(key)
		})
	}
}

// TestLockTableMCSReclaimWith is the MCS died-in-CS counterpart of
// TestLockTableReclaimWith: a worker killed at M.cs (release not yet
// announced) leaves Held true and is reported to the sweep callback with
// inCS=true.
func TestLockTableMCSReclaimWith(t *testing.T) {
	tbl := rme.NewLockTable(2, 4, rme.WithTableSeed(3),
		rme.WithShardBackend(rme.MCSBackend))
	const key = 1234
	tbl.Lock(key)
	tbl.SetCrashFunc(func(port int, point string) bool { return point == "M.cs" })
	expectCrash(t, func() { tbl.Unlock(key) })
	tbl.SetCrashFunc(nil)
	if !tbl.Held(key) {
		t.Fatal("orphaned-in-CS key must still report Held")
	}
	var gotKey uint64
	var gotInCS bool
	if n := tbl.ReclaimWith(func(k uint64, inCS bool) { gotKey, gotInCS = k, inCS }); n != 1 {
		t.Fatalf("ReclaimWith = %d, want 1", n)
	}
	if gotKey != key || !gotInCS {
		t.Fatalf("callback saw (key=%d, inCS=%v), want (%d, true)", gotKey, gotInCS, key)
	}
	if tbl.Held(key) || !tbl.Quiesced() {
		t.Fatal("key not free after the sweep")
	}
	tbl.Lock(key)
	tbl.Unlock(key)
}

// TestLockTableMCSReleaseCrashWindows kills a release at each of its
// crash points — announced but nothing done (M.rel), queue emptied under
// the descriptor but the passage not retired (M.empty), successor known
// but not yet signalled (M.grant) — and proves the sweep completes the
// hand-off: the waiting successor gets the critical section, mutual
// exclusion holds throughout, and the stripe drains clean. This is the
// tree's died-mid-release test rebuilt on the MCS windows.
func TestLockTableMCSReleaseCrashWindows(t *testing.T) {
	for _, tt := range []struct {
		point     string
		contended bool
	}{
		{"M.rel", false},
		{"M.empty", false},
		{"M.rel", true},
		{"M.grant", true},
	} {
		name := tt.point
		if tt.contended {
			name += "/contended"
		}
		t.Run(name, func(t *testing.T) {
			tbl := rme.NewLockTable(2, 4, rme.WithTableSeed(9),
				rme.WithShardBackend(rme.MCSBackend))
			const key = 7
			tbl.Lock(key)
			var waiter sync.WaitGroup
			var waiterIn atomic.Bool
			if tt.contended {
				// Queue a live successor, and give it time to link.
				waiter.Add(1)
				go func() {
					defer waiter.Done()
					tbl.Lock(key)
					waiterIn.Store(true)
					tbl.Unlock(key)
				}()
				time.Sleep(30 * time.Millisecond)
			}
			tbl.SetCrashFunc(crashOnceAt(tt.point))
			expectCrash(t, func() { tbl.Unlock(key) })
			tbl.SetCrashFunc(nil)
			if tbl.Held(key) {
				t.Fatal("release-announced tenancy must not report Held")
			}
			if tt.contended && waiterIn.Load() {
				t.Fatal("successor entered before the orphaned release was reclaimed")
			}
			if n := tbl.Reclaim(); n != 1 {
				t.Fatalf("Reclaim = %d, want 1", n)
			}
			waiter.Wait()
			if tt.contended && !waiterIn.Load() {
				t.Fatal("successor never got the critical section")
			}
			if !tbl.Quiesced() {
				t.Fatal("table not quiesced after the sweep")
			}
			tbl.Lock(key)
			tbl.Unlock(key)
		})
	}
}

// TestLockTableMCSDescriptorStall pins the documented liveness model of
// the locked-descriptor fallback: a worker dead inside the descriptor
// section stalls other arrivals of the stripe (they spin, they do not
// err), and a reclaim sweep unsticks them.
func TestLockTableMCSDescriptorStall(t *testing.T) {
	tbl := rme.NewLockTable(1, 4, rme.WithTableSeed(17),
		rme.WithShardBackend(rme.MCSBackend))
	const key = 5
	tbl.SetCrashFunc(crashOnceAt("M.swap"))
	expectCrash(t, func() { tbl.Lock(key) })
	tbl.SetCrashFunc(nil)
	entered, released := make(chan struct{}), make(chan struct{})
	go func() {
		tbl.Lock(key + 1) // same (only) stripe; must stall on the descriptor
		close(entered)
		tbl.Unlock(key + 1)
		close(released)
	}()
	select {
	case <-entered:
		t.Fatal("arrival got past a dead descriptor holder without a sweep")
	case <-time.After(50 * time.Millisecond):
	}
	if n := tbl.Reclaim(); n != 1 {
		t.Fatalf("Reclaim = %d, want 1", n)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("arrival still stalled after the sweep")
	}
	<-released // the arrival's Unlock must land before quiescence is judged
	if !tbl.Quiesced() {
		t.Fatal("table not quiesced")
	}
}

// TestLockTableMCSHandoffStorm hammers one MCS stripe with more workers
// than ports plus injected crashes at every M-point in rotation, the
// queue-shape-specific storm the CI race job runs: it exercises enqueue,
// hand-off, and release recovery under real interleavings rather than
// choreographed ones.
func TestLockTableMCSHandoffStorm(t *testing.T) {
	const workers = 24
	iters := 150
	if testing.Short() {
		iters = 30
	}
	tbl := rme.NewLockTable(2, 8, rme.WithTableSeed(23), rme.WithNodePool(true),
		rme.WithShardBackend(rme.MCSBackend))
	var calls atomic.Uint64
	var crashed atomic.Int64
	tbl.SetCrashFunc(func(port int, point string) bool {
		if xrand.Mix64(calls.Add(1))%977 == 0 {
			crashed.Add(1)
			return true
		}
		return false
	})
	const keys = 16
	var inside [keys]atomic.Int32
	var counters [keys]int32 // guarded by the keyed lock
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w) + 1)
			for i := 0; i < iters; i++ {
				k := rng.Uint64() % keys
				tbl.Do(k, func() {
					if inside[k].Add(1) != 1 {
						t.Errorf("two holders of key %d", k)
					}
					counters[k]++
					inside[k].Add(-1)
				})
			}
		}(w)
	}
	wg.Wait()
	tbl.SetCrashFunc(nil)
	tbl.Reclaim()
	if got := tbl.Orphans(); got != 0 {
		t.Fatalf("%d orphans left after the final sweep", got)
	}
	if !tbl.Quiesced() {
		t.Fatal("table not quiesced after the storm")
	}
	var total int64
	for k := range counters {
		total += int64(counters[k])
	}
	if total != int64(workers)*int64(iters) {
		t.Fatalf("counter sum %d, want %d", total, int64(workers)*int64(iters))
	}
	if crashed.Load() == 0 {
		t.Fatal("storm injected no crashes")
	}
}

// TestLockTableStats pins the observability snapshot: acquisitions are
// counted per stripe across the sync and async paths, wakes appear once
// there is real contention, orphans and quiescence agree with the
// dedicated probes, and the totals add up.
func TestLockTableStats(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		tbl := rme.NewLockTable(4, 4, rme.WithTableSeed(29),
			rme.WithShardBackend(backend))
		defer tbl.Close()
		if got := tbl.Stats().Total(); got.Acquires != 0 || got.Wakes != 0 {
			t.Fatalf("fresh table stats = %+v, want zeroes", got)
		}
		// All workers hammer one key, yielding inside the critical section
		// so passages genuinely overlap and hand-offs (wakes) must happen.
		const workers, iters = 8, 100
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					tbl.Lock(77)
					runtime.Gosched()
					tbl.Unlock(77)
				}
			}(w)
		}
		wg.Wait()
		g := <-tbl.LockAsync(999)
		g.Unlock()
		st := tbl.Stats()
		if len(st.Shards) != tbl.Shards() {
			t.Fatalf("Stats has %d shards, want %d", len(st.Shards), tbl.Shards())
		}
		total := st.Total()
		if want := uint64(workers*iters + 1); total.Acquires != want {
			t.Fatalf("total acquires = %d, want %d", total.Acquires, want)
		}
		var sum uint64
		for _, s := range st.Shards {
			sum += s.Acquires
		}
		if sum != total.Acquires {
			t.Fatalf("per-shard acquires sum %d != total %d", sum, total.Acquires)
		}
		if total.Wakes == 0 {
			t.Fatal("8 workers on 4 stripes produced zero wakes — instrumentation dead")
		}
		if total.Orphans != 0 || total.InboxDepth != 0 {
			t.Fatalf("idle table reports orphans=%d inbox=%d", total.Orphans, total.InboxDepth)
		}
		if wpo := total.WakesPerOp(); wpo <= 0 {
			t.Fatalf("WakesPerOp = %v, want > 0", wpo)
		}
	})
}

// TestLockTableStatsOrphans pins the Stats orphan column against the
// dedicated Orphans() probe through a crash-and-sweep cycle.
func TestLockTableStatsOrphans(t *testing.T) {
	tbl := rme.NewLockTable(2, 4, rme.WithTableSeed(31),
		rme.WithShardBackend(rme.MCSBackend))
	tbl.Lock(1)
	tbl.SetCrashFunc(func(port int, point string) bool { return point == "M.cs" })
	expectCrash(t, func() { tbl.Unlock(1) })
	tbl.SetCrashFunc(nil)
	if got := tbl.Stats().Total().Orphans; got != 1 {
		t.Fatalf("Stats orphans = %d, want 1", got)
	}
	tbl.Reclaim()
	if got := tbl.Stats().Total().Orphans; got != 0 {
		t.Fatalf("Stats orphans after sweep = %d, want 0", got)
	}
}
