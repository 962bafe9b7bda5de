package main

import (
	"runtime"
	"time"

	"github.com/rmelib/rme"
)

// The ladder runs single-key passages over the workload's key stream and
// critical section on a stack of targets, each one layer above the last:
// a striped sync.Mutex, the bare backends (one lock per stripe, one port
// per worker), the flat or MCS backend behind a per-stripe PortLeaser, and
// the LockTable. One layer's cost is the gap between adjacent rungs.

// portLocker is the bare backend surface a rung drives.
type portLocker interface {
	Lock(port int)
	Unlock(port int)
}

type bareTarget struct {
	locks  []portLocker
	stripe func(uint64) int
}

func (bt bareTarget) pass(w *worker, p *passage) bool {
	k := p.keys[0]
	m := bt.locks[bt.stripe(k)]
	m.Lock(w.port)
	w.cs(k)
	m.Unlock(w.port)
	return true
}

// leaseTarget is a bare backend lock per stripe with a PortLeaser handing
// out its ports, the table's stripe minus hashing, key registry and stats.
type leaseTarget struct {
	bareTarget
	leasers []*rme.PortLeaser
}

func (lt leaseTarget) pass(w *worker, p *passage) bool {
	k := p.keys[0]
	s := lt.stripe(k)
	pl := lt.leasers[s]
	l, ok := pl.TryAcquire()
	w.tries++
	if !ok {
		w.misses++
		l = pl.Acquire()
	}
	m := lt.locks[s]
	m.Lock(l.Port)
	w.cs(k)
	m.Unlock(l.Port)
	pl.Release(l)
	return true
}

func newBackend(b rme.ShardBackend, ports int) portLocker {
	switch b {
	case rme.MCSBackend:
		return rme.NewMCS(ports, rme.WithNodePool(true))
	case rme.TreeBackend:
		return rme.NewTree(ports, rme.WithNodePool(true))
	default:
		return rme.New(ports, rme.WithNodePool(true))
	}
}

func newBare(b rme.ShardBackend, stripes, ports int, stripe func(uint64) int) bareTarget {
	bt := bareTarget{locks: make([]portLocker, stripes), stripe: stripe}
	for i := range bt.locks {
		bt.locks[i] = newBackend(b, ports)
	}
	return bt
}

type rung struct {
	name string
	tgt  target
	ns   []float64 // per-passage ns of each block (wall × workers / ops)

	mallocs, bytes, ops uint64 // table rung only
}

// ladder runs rounds of one block per rung, rotating the order, for about
// budget in total, and reports each rung's median passage time.
func (r *run) ladder(t *rme.LockTable, ws []*worker, budget time.Duration) {
	stripe, shards, ports := t.ShardIndex, t.Shards(), t.Ports()
	lease := leaseTarget{bareTarget: newBare(t.Backend(), shards, ports, stripe),
		leasers: make([]*rme.PortLeaser, shards)}
	for i := range lease.leasers {
		lease.leasers[i] = rme.NewPortLeaser(ports)
	}
	rungs := []*rung{
		{name: "ref.passage_ns", tgt: newRefTarget(shards, stripe)},
		{name: "backend.flat.passage_ns", tgt: newBare(rme.FlatBackend, shards, ports, stripe)},
		{name: "backend.mcs.passage_ns", tgt: newBare(rme.MCSBackend, shards, ports, stripe)},
		{name: "backend.tree.passage_ns", tgt: newBare(rme.TreeBackend, shards, ports, stripe)},
		{name: "lease.passage_ns", tgt: lease},
		{name: "table.passage_ns", tgt: tableTarget{t}},
	}
	blockDur := 40 * time.Millisecond
	rounds := max(3, int(budget/(blockDur*time.Duration(len(rungs)))))
	var ms0, ms1 runtime.MemStats
	for round := 0; round < rounds; round++ {
		for i := range rungs {
			g := rungs[(i+round)%len(rungs)]
			table := g.name == "table.passage_ns"
			if table {
				runtime.ReadMemStats(&ms0)
			}
			b := runBlock(g.tgt, ws, blockDur, nil)
			if table {
				runtime.ReadMemStats(&ms1)
				g.mallocs += ms1.Mallocs - ms0.Mallocs
				g.bytes += ms1.TotalAlloc - ms0.TotalAlloc
				g.ops += b.ops
			}
			g.ns = append(g.ns, b.nsPerOp()*float64(len(ws)))
		}
	}
	var tries, misses uint64
	for _, w := range ws {
		tries += w.tries
		misses += w.misses
	}
	for _, g := range rungs {
		r.rep.set(g.name, median(g.ns), "ns", len(g.ns))
		if g.ops > 0 {
			r.rep.set("table.allocs_per_op", float64(g.mallocs)/float64(g.ops), "count", int(g.ops))
			r.rep.set("table.bytes_per_op", float64(g.bytes)/float64(g.ops), "B", int(g.ops))
		}
	}
	r.rep.set("lease.try_miss_ratio", float64(misses)/float64(max(tries, 1)), "ratio", int(tries))
}
