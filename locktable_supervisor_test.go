package rme_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rme "github.com/rmelib/rme"
	"github.com/rmelib/rme/internal/xrand"
)

// This file proves the supervised table: the WithSupervisor background
// loop heals orphans with no caller-driven Reclaim anywhere in these
// tests. None of the supervised tests call Reclaim: healing crash orphans
// and abandoned grants is exactly the contract under test.

// waitQuiesced polls until the table drains or the deadline passes,
// without sweeping — on a supervised table the supervisor must do that.
func waitQuiesced(t *testing.T, tbl *rme.LockTable, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !tbl.Quiesced() {
		if time.Now().After(deadline) {
			t.Fatalf("table did not drain: %d in use, %d orphans",
				tbl.InUse(), tbl.Orphans())
		}
		time.Sleep(time.Millisecond)
	}
}

// absorbCrash runs op, swallowing an injected Crash panic (any other
// panic propagates); it reports whether op completed. Unlike the older
// storm tests' absorb helper it does NOT sweep — the supervisor owns that.
func absorbCrash(op func()) (completed bool) {
	defer func() {
		r := recover()
		if r == nil {
			completed = true
			return
		}
		if _, ok := rme.AsCrash(r); !ok {
			panic(r)
		}
	}()
	op()
	return
}

// TestSupervisorHealsStormNoManualReclaim is the supervised form of the
// abort/crash/async storm: crashes orphan ports, cancelled-after-granted
// async requests auto-Abandon into the orphan machinery, and some grants
// are explicitly Abandoned — and nothing in the test ever sweeps. The
// supervisor alone must keep every stripe live and drain the debris.
func TestSupervisorHealsStormNoManualReclaim(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		const workers = 24
		const keys = 1 << 9
		iters := 250
		if testing.Short() {
			iters = 50
		}
		tbl := rme.NewLockTable(8, 4, rme.WithTableSeed(83), rme.WithNodePool(true),
			rme.WithShardBackend(backend),
			rme.WithSupervisor(rme.SupervisorConfig{Interval: 500 * time.Microsecond}))
		defer tbl.Close()

		var calls atomic.Uint64
		var crashCount atomic.Int64
		tbl.SetCrashFunc(func(port int, point string) bool {
			if xrand.Mix64(calls.Add(1))%1901 == 0 {
				crashCount.Add(1)
				return true
			}
			return false
		})

		inside := make([]atomic.Int32, keys)
		enter := func(k uint64) {
			if inside[k].Add(1) != 1 {
				t.Errorf("two holders of key %d", k)
			}
		}
		leave := func(k uint64) { inside[k].Add(-1) }

		var wg sync.WaitGroup
		var granted, sheds, abandoned atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				z := rand.NewZipf(rand.New(rand.NewSource(int64(w)+1)), 1.3, 1, keys-1)
				for i := 0; i < iters; i++ {
					k := z.Uint64()
					switch i % 4 {
					case 0: // synchronous passage, crash retried (no sweep: the
						// supervisor heals while we re-acquire)
						for !absorbCrash(func() {
							tbl.Lock(k)
							enter(k)
							leave(k)
							tbl.Unlock(k)
						}) {
						}
						granted.Add(1)
					case 1: // deadline-bounded acquisition
						ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
						absorbCrash(func() {
							if err := tbl.LockContext(ctx, k); err != nil {
								sheds.Add(1)
								return
							}
							enter(k)
							leave(k)
							tbl.Unlock(k)
							granted.Add(1)
						})
						cancel()
					case 2: // async grant, sometimes abandoned like a dead grantee's
						if g, ok := <-tbl.LockAsync(k); ok {
							if i%16 == 2 {
								g.Abandon()
								abandoned.Add(1)
							} else {
								enter(k)
								leave(k)
								absorbCrash(g.Unlock)
								granted.Add(1)
							}
						}
					case 3: // cancellable async acquisition
						ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
						if g, ok := <-tbl.LockAsyncContext(ctx, k); ok {
							enter(k)
							leave(k)
							absorbCrash(g.Unlock)
							granted.Add(1)
						} else {
							sheds.Add(1)
						}
						cancel()
					}
				}
			}(w)
		}
		wg.Wait()
		tbl.SetCrashFunc(nil)

		waitQuiesced(t, tbl, 30*time.Second)
		if tbl.Orphans() != 0 {
			t.Errorf("orphans after drain: %d", tbl.Orphans())
		}
		if granted.Load() == 0 {
			t.Error("storm granted nothing")
		}
		if abandoned.Load() == 0 {
			t.Error("storm abandoned no grants")
		}
		st := tbl.Stats()
		if st.Supervisor.Sweeps == 0 {
			t.Error("supervisor ran no sweeps")
		}
		if crashCount.Load() > 0 && st.Supervisor.PortsHealed == 0 {
			t.Errorf("crashes injected (%d) but supervisor healed nothing", crashCount.Load())
		}
	})
}

// TestSupervisorQuiescedInboxDepth pins the Quiesced fix: a submitted but
// undispatched async request holds no lease, yet the table has not
// quiesced — the old InUse-only check reported true here, which would let
// a checkpoint record the stripe as free with a grant still owed.
func TestSupervisorQuiescedInboxDepth(t *testing.T) {
	tbl := rme.NewLockTable(1, 1, rme.WithTableSeed(5))
	defer tbl.Close()

	entered := make(chan struct{})
	block := make(chan struct{})
	// The callback settles its grant immediately (InUse drops to zero),
	// then wedges the dispatcher goroutine.
	tbl.LockAsyncFunc(1, func(g rme.Grant) {
		g.Unlock()
		close(entered)
		<-block
	})
	<-entered

	// Second request: queued in the inbox, dispatcher wedged — no lease
	// in use, depth 1.
	ch := tbl.LockAsync(2)
	if tbl.InUse() != 0 {
		// The dispatcher settled before wedging; the premise holds anyway
		// (the second request is certainly undispatched).
		t.Logf("InUse = %d (expected 0)", tbl.InUse())
	}
	if tbl.Quiesced() {
		t.Error("Quiesced() true with a queued async request (inbox depth ignored)")
	}

	close(block)
	g := <-ch
	g.Unlock()
	waitQuiesced(t, tbl, 5*time.Second)
}

// TestSupervisorCloseJoins pins Close's supervisor join: after Close
// returns, the loop has fully stopped (its tick counter never advances
// again) and a second Close is a no-op.
func TestSupervisorCloseJoins(t *testing.T) {
	tbl := rme.NewLockTable(4, 2, rme.WithTableSeed(9),
		rme.WithSupervisor(rme.SupervisorConfig{Interval: 200 * time.Microsecond}))
	// Let it tick at least once.
	deadline := time.Now().Add(5 * time.Second)
	for tbl.Stats().Supervisor.Sweeps == 0 {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	tbl.Close()
	before := tbl.Stats().Supervisor.Sweeps
	time.Sleep(5 * time.Millisecond)
	if after := tbl.Stats().Supervisor.Sweeps; after != before {
		t.Errorf("supervisor still ticking after Close: %d -> %d", before, after)
	}
	tbl.Close() // idempotent
}

// TestSupervisorStatsJSON pins the MarshalJSON surface: stable snake_case
// keys and the derived ratios inlined.
func TestSupervisorStatsJSON(t *testing.T) {
	tbl := rme.NewLockTable(2, 4, rme.WithTableSeed(13),
		rme.WithShardBackend(rme.MCSBackend))
	defer tbl.Close()
	tbl.Lock(1)
	tbl.Unlock(1)

	raw, err := json.Marshal(tbl.Stats())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	s := string(raw)
	for _, want := range []string{
		`"shards"`, `"total"`, `"supervisor"`,
		`"acquires"`, `"wakes_per_op"`,
		`"sweeps"`, `"stripes_healed"`, `"ports_healed"`, `"steals"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("stats JSON missing %s in %s", want, s)
		}
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("stats JSON does not round-trip: %v", err)
	}
}
