package main

import (
	"sync"

	"github.com/rmelib/rme"
)

// maxHeld caps how many stripes a system-wide round leaves held.
const maxHeld = 64

// recoveryRound is one system-wide crash round on a table of the
// workload's shape: the generating goroutine leaves one tenancy held on
// each of up to maxHeld stripes and abandons it, the arena is
// checkpointed and restored, and then a probe Lock on one of the dead
// stripes races a concurrent Reclaim. Times are ns after restore start.
type recoveryRound struct {
	save, restore int64
	bytes         int
	ttfg, heal    int64
}

// recoveryKeys picks, from the seeded key source, one key for each of the
// first maxHeld stripes plus a probe key that shares the first one's
// stripe.
func recoveryKeys(t *rme.LockTable, seed uint64, zipf bool) (held []uint64, probe uint64) {
	ks := newKeySource(subSeed(seed, tagHold), zipf)
	want := min(t.Shards(), maxHeld)
	seen := make(map[int]bool)
	for len(held) < want {
		k := ks.r.Uint64N(keySpace)
		if s := t.ShardIndex(k); s < want && !seen[s] {
			seen[s] = true
			held = append(held, k)
		}
	}
	for {
		k := ks.r.Uint64N(keySpace)
		if k != held[0] && t.ShardIndex(k) == t.ShardIndex(held[0]) {
			return held, k
		}
	}
}

func (r *run) recoveryRound(held []uint64, probe uint64, tb *spanBuf, op uint64) recoveryRound {
	var rr recoveryRound
	old := r.newTable()
	for _, k := range held {
		old.Lock(k)
	}
	sp := tb.begin(spCheckpoint, op, -1)
	t := now()
	img, err := old.Checkpoint()
	rr.save = now() - t
	tb.end(sp)
	if err != nil {
		r.ref.fire("Checkpoint: %v", err)
		return rr
	}
	rr.bytes = len(img)

	sp = tb.begin(spRestore, op, -1)
	t0 := now()
	nt, err := rme.RestoreTable(img, r.opts()...)
	rr.restore = now() - t0
	tb.end(sp)
	if err != nil {
		r.ref.fire("RestoreTable: %v", err)
		return rr
	}
	if got := nt.Orphans(); got != len(held) {
		r.ref.fire("restored table has %d orphans, want %d", got, len(held))
	}

	var wg sync.WaitGroup
	var reclaimAt, healAt int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		reclaimAt = now()
		nt.Reclaim()
		for nt.Orphans() != 0 {
			nt.Reclaim()
		}
		healAt = now()
	}()
	sp = tb.begin(spProbe, op, -1)
	nt.Lock(probe)
	rr.ttfg = now() - t0
	tb.end(sp)
	s := nt.ShardIndex(probe)
	r.ref.enter(s)
	r.ref.leave(s)
	nt.Unlock(probe)
	wg.Wait()
	rr.heal = healAt - t0
	tb.add(span{start: reclaimAt, end: healAt, op: op, parent: -1, name: spReclaim})
	r.ref.checkQuiet(nt, "restored table")
	nt.Close()
	old.Close()
	return rr
}
