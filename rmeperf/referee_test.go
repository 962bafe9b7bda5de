package main

import (
	"testing"
	"time"

	"github.com/rmelib/rme"
)

// brokenTarget "locks" nothing: its critical sections overlap freely.
type brokenTarget struct{}

func (brokenTarget) pass(w *worker, p *passage) bool {
	w.cs(p.keys[0])
	return true
}

func refereeWorkers(ref *referee, stripe func(uint64) int, n int) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = newWorker(makeStream(9, i, 256, false, mix{kLock: 100}), ref, stripe, 2000)
	}
	return ws
}

func TestRefereeFiresOnABrokenLocker(t *testing.T) {
	ref := newReferee(1)
	ws := refereeWorkers(ref, func(uint64) int { return 0 }, 4)
	deadline := time.Now().Add(5 * time.Second)
	for ref.violations() == 0 && time.Now().Before(deadline) {
		runBlock(brokenTarget{}, ws, 20*time.Millisecond, nil)
	}
	if ref.err() == nil {
		t.Fatal("four workers in one stripe without a lock never tripped the referee")
	}
}

func TestRefereeQuietOnRealLocks(t *testing.T) {
	tbl := rme.NewLockTable(2, 4, rme.WithNodePool(true), rme.WithTableSeed(3))
	defer tbl.Close()
	ref := newReferee(tbl.Shards())
	ws := refereeWorkers(ref, tbl.ShardIndex, 4)
	for _, w := range ws {
		w.csIters = 50
	}
	for _, tgt := range []target{tableTarget{tbl}, newRefTarget(tbl.Shards(), tbl.ShardIndex)} {
		if b := runBlock(tgt, ws, 50*time.Millisecond, nil); b.ops == 0 {
			t.Fatalf("%T made no progress", tgt)
		}
	}
	ref.checkQuiet(tbl, "table")
	if err := ref.err(); err != nil {
		t.Fatal(err)
	}
}

func TestRefereeCatchesAnUnsettledTable(t *testing.T) {
	tbl := rme.NewLockTable(1, 2)
	defer tbl.Close()
	tbl.Lock(1)
	ref := newReferee(1)
	ref.settle = 50 * time.Millisecond
	ref.checkQuiet(tbl, "table")
	if ref.err() == nil {
		t.Fatal("a table with a held tenancy passed the settle check")
	}
	tbl.Unlock(1)
}
