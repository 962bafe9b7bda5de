package rme_test

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rme "github.com/rmelib/rme"
	"github.com/rmelib/rme/internal/xrand"
)

// Tests for the keyed hot path: the signal latch's wake accounting and the
// stripe's holder word, which Unlock and Held read instead of scanning
// every port.

// TestStatsUncontendedNoWakes pins the wake counter to real hand-offs. A
// contended phase first gives the pooled queue nodes bound wait stats;
// 10k uncontended passages after it must then count no wake and no
// sleep: a signal set with nobody waiting must count nothing, or an
// uncontended flat passage reports about one wake per op.
func TestStatsUncontendedNoWakes(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		const key = 5
		tbl := rme.NewLockTable(1, 4, rme.WithTableSeed(1), rme.WithNodePool(true),
			rme.WithShardBackend(backend))
		// Contend until some hand-off actually slept and was woken: two
		// goroutines can miss each other entirely on a fast host.
		var before rme.ShardStats
		for round := 0; before.Wakes == 0 || before.Sleeps == 0; round++ {
			if round == 50 {
				t.Fatalf("contended phase recorded wakes=%d sleeps=%d; the stats were never bound",
					before.Wakes, before.Sleeps)
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < 500; i++ {
						tbl.Lock(key)
						runtime.Gosched() // hold across a yield so the rival queues
						tbl.Unlock(key)
					}
				}()
			}
			close(start)
			wg.Wait()
			before = tbl.Stats().Total()
		}
		const passages = 10000
		for i := 0; i < passages; i++ {
			tbl.Lock(key)
			tbl.Unlock(key)
		}
		after := tbl.Stats().Total()
		if d := after.Wakes - before.Wakes; d != 0 {
			t.Errorf("%d uncontended passages counted %d wakes, want 0", passages, d)
		}
		if d := after.Sleeps - before.Sleeps; d != 0 {
			t.Errorf("%d uncontended passages counted %d sleeps, want 0", passages, d)
		}
		if d := after.Acquires - before.Acquires; d != passages {
			t.Errorf("Acquires advanced by %d, want %d", d, passages)
		}
	})
}

// TestLockTableHolderUnlockWrongKey: Unlock of a key whose stripe is held
// for another key panics and leaves the holder's tenancy intact.
func TestLockTableHolderUnlockWrongKey(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		tbl := rme.NewLockTable(4, 4, rme.WithTableSeed(11), rme.WithShardBackend(backend))
		k1, k2 := sameStripeKeys(tbl)
		tbl.Lock(k1)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Unlock of a same-stripe key that is not held did not panic")
				}
			}()
			tbl.Unlock(k2)
		}()
		if !tbl.Held(k1) {
			t.Fatal("the failed Unlock released the holder's key")
		}
		if tbl.Held(k2) {
			t.Fatal("Held reports the unheld same-stripe key")
		}
		tbl.Unlock(k1)
		if !tbl.Quiesced() {
			t.Fatalf("table not quiesced: %d in use", tbl.InUse())
		}
	})
}

// TestLockTableHolderOrphanHeldAcrossRestore: a tenancy that died inside
// its critical section (here a grant abandoned by its receiver) still
// reports Held, before a checkpoint and in the restored table, where
// restore re-adopts the section and names its port in the holder word.
func TestLockTableHolderOrphanHeldAcrossRestore(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		tbl := rme.NewLockTable(4, 4, rme.WithTableSeed(21), rme.WithShardBackend(backend))
		keys := distinctStripeKeys(t, tbl, 2)
		dead, other := keys[0], keys[1]
		g := <-tbl.LockAsync(dead)
		g.Abandon()
		if got := tbl.Orphans(); got != 1 {
			t.Fatalf("Orphans = %d after Abandon, want 1", got)
		}
		if !tbl.Held(dead) {
			t.Fatal("orphan that died in the CS not Held before the checkpoint")
		}
		if tbl.Held(other) {
			t.Fatal("an untouched key reports Held")
		}
		data := mustCheckpoint(t, tbl)
		tbl.Close()

		nt, err := rme.RestoreTable(data)
		if err != nil {
			t.Fatalf("RestoreTable: %v", err)
		}
		defer nt.Close()
		if !nt.Held(dead) {
			t.Fatal("orphan that died in the CS not Held after RestoreTable")
		}
		if nt.Reclaim() != 1 {
			t.Fatal("the restored orphan was not reclaimed")
		}
		if nt.Held(dead) {
			t.Fatal("key still Held after its orphan was reclaimed")
		}
		nt.Lock(dead)
		nt.Unlock(dead)
		if !nt.Quiesced() {
			t.Fatalf("restored table not quiesced: %d in use", nt.InUse())
		}
	})
}

// TestLockTableHolderQueuedWaiterNotHeld: a waiter queued on a stripe has
// its key registered on its port but does not hold the section, so Held
// is false for its key until the holder hands over.
func TestLockTableHolderQueuedWaiterNotHeld(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		tbl := rme.NewLockTable(4, 4, rme.WithTableSeed(31), rme.WithShardBackend(backend))
		held, queued := sameStripeKeys(tbl)
		tbl.Lock(held)
		entered, release := make(chan struct{}), make(chan struct{})
		go func() {
			tbl.Lock(queued)
			close(entered)
			<-release
			tbl.Unlock(queued)
		}()
		// Wait until the waiter holds a lease (it is then registered and
		// queued), then give it time to reach the queue wait.
		for tbl.InUse() < 2 {
			runtime.Gosched()
		}
		time.Sleep(10 * time.Millisecond)
		if tbl.Held(queued) {
			t.Fatal("Held is true for a queued waiter's key")
		}
		if !tbl.Held(held) {
			t.Fatal("the holder's key is not Held while a waiter queues behind it")
		}
		tbl.Unlock(held)
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("the waiter was never handed the stripe")
		}
		if !tbl.Held(queued) {
			t.Fatal("the former waiter's key is not Held once it entered")
		}
		if tbl.Held(held) {
			t.Fatal("the released key is still Held")
		}
		close(release)
		for !tbl.Quiesced() {
			runtime.Gosched()
		}
	})
}

// TestLockTableHolderZipfStorm48: two goroutines run a crash-injected zipf
// storm on a 32×48 arena, where a port scan would read 48 lease lines per
// Unlock; every backend must keep per-key exclusion, and a full sweep
// afterwards must leave no orphan.
func TestLockTableHolderZipfStorm48(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		const keys = 1 << 12
		iters := 4000
		if testing.Short() {
			iters = 1000
		}
		tbl := rme.NewLockTable(32, 48, rme.WithTableSeed(48), rme.WithNodePool(true),
			rme.WithShardBackend(backend))
		var calls atomic.Uint64
		var crashCount atomic.Int64
		tbl.SetCrashFunc(func(port int, point string) bool {
			if xrand.Mix64(calls.Add(1))%997 == 0 {
				crashCount.Add(1)
				return true
			}
			return false
		})
		inside := make([]atomic.Int32, keys)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				z := rand.NewZipf(rand.New(rand.NewSource(int64(w)+1)), 1.2, 1, keys-1)
				for i := 0; i < iters; i++ {
					k := z.Uint64()
					tbl.Do(k, func() {
						if inside[k].Add(1) != 1 {
							t.Errorf("two holders of key %d", k)
						}
						if !tbl.Held(k) {
							t.Errorf("key %d not Held inside its critical section", k)
						}
						inside[k].Add(-1)
					})
				}
			}(w)
		}
		wg.Wait()
		tbl.SetCrashFunc(nil)
		tbl.Reclaim()
		if got := tbl.Orphans(); got != 0 {
			t.Fatalf("Orphans = %d after the final sweep, want 0", got)
		}
		if !tbl.Quiesced() {
			t.Fatalf("table not quiesced: %d in use", tbl.InUse())
		}
		if crashCount.Load() == 0 {
			t.Fatal("storm injected no crashes")
		}
	})
}
