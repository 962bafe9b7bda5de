package rme

// Test-only bridge for the external (rme_test) suite.

// SetNoAbortFixup toggles the hazard hook that disables the cooperative
// abort fix-up, so the regression tests can reproduce both failure modes it
// prevents: the stranded stripe (a cancelled waiter parked as an orphan mid
// -queue) and the leaked grant (a cancelled-but-granted async request whose
// tenancy is dropped held). Production code never flips this.
func (t *LockTable) SetNoAbortFixup(on bool) { t.noAbortFixup.Store(on) }

// LeaseWaiters reports how many acquirers are parked on one stripe's
// lease chain — the deterministic "the delivery is waiting for a port,
// holding no lease" probe the quiesce regression test polls.
func (t *LockTable) LeaseWaiters(shard int) int { return t.shards[shard].pool.chain.Waiters() }

// PortEpoch reports one port's current lease-word fencing epoch, so the
// restore tests can assert every epoch advanced strictly across the
// process boundary.
func (t *LockTable) PortEpoch(shard, port int) uint64 { return t.shards[shard].pool.epochOf(port) }

// PortLeaseState reports one port's lease state.
func (t *LockTable) PortLeaseState(shard, port int) LeaseState {
	return t.shards[shard].pool.State(port)
}
