package rme

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/rmelib/rme/internal/xrand"
)

// This file is the table's self-management loop: the supervisor started by
// WithSupervisor, the adaptive port-pool policy, and live stripe-shape
// migration. Everything here runs off the grant path — the supervisor is a
// single background goroutine whose steady-state tick performs no
// allocation, so a supervised table's warm passages stay 0 allocs/op.
//
// # What the supervisor owns
//
// Three responsibilities, each optional except the first:
//
//  1. Orphan sweeps. A crashed worker, a cancelled-but-granted async
//     request, or an abandoned Grant all leave an orphaned lease that
//     stalls its stripe until someone reclaims it. The supervisor sweeps
//     periodically under a liveness budget (at most MaxHealsPerTick
//     stripes claimed per tick, recoveries on their own goroutines), so a
//     supervised table needs no caller-driven Reclaim pattern at all.
//  2. Adaptive port pools (AdaptivePorts). Cold stripes shrink at quiesce
//     points, banking their spare port quota in a table-wide slack pool;
//     hot stripes grow out of that pool — from the supervisor when it
//     sees parked lease acquirers, and from the acquire path itself (the
//     work-stealing fallback in acquireLeaseDone) the moment a stripe
//     exhausts its active ports under skew.
//  3. Stripe-shape migration (Migrate). The supervisor watches each
//     stripe's wakes-per-acquire — the RMR proxy AutoBackend's static
//     thresholds guess at — and flips stripes between the flat, MCS, and
//     tree shapes live when the observed profile disagrees with the
//     current shape, with hysteresis so it never flaps.
//
// # Migration safety argument
//
// migrateShard swaps a stripe's lock backend only at a proven quiesce
// point, using a Dekker-style handshake with the acquire path:
//
//   - The barrier closes the stripe's gate (gateClosed, a seq-cst store),
//     then scans the lease words. New entrants park on the gate chain
//     instead of taking leases.
//   - An entrant CASes its lease first, then re-loads gateClosed (the
//     post-acquire re-check in acquireLeaseDone and TryLock). Sequential
//     consistency gives a total order over the four operations: either
//     the entrant's CAS precedes the barrier's scan (the scan sees the
//     lease, the barrier waits for that tenancy), or the barrier's store
//     precedes the entrant's re-check (the entrant sees the closed gate,
//     hands the port back, and parks). No tenancy can straddle the swap.
//   - InUse()==0 at the scan therefore means every tenancy that will ever
//     touch the old backend has fully settled (a tenancy releases its
//     lease only after its backend state is retired — Unlock, abort
//     fix-up, and orphan heal all settle the lock before freeing the
//     lease), and quiesceExport() re-verifies idleness from the backend's
//     own words before the swap.
//   - Orphans on the draining stripe would hold InUse above zero forever,
//     so the barrier wait spawns asynchronous table-wide sweeps while it
//     waits — never a synchronous Reclaim, which could deadlock the
//     barrier behind a batch tenancy blocked on another stripe.
//
// The replacement backend is built by the stripe's construction closure
// (same options, same instrumented strategy and stats block) and inherits
// the old backend's crash hook through quiesceExport, so an installed
// CrashFunc survives any number of swaps. Migrations are serialized
// table-wide (migMu) and bounded by QuiesceTimeout: a stripe that will
// not drain stays on its current shape — migration is an optimization,
// never a liveness hazard.
//
// # Coordination with the shared dispatcher runtime
//
// The supervisor needs nothing special from the executor (dispatch.go),
// but two interactions are worth naming. First, a pool worker delivering
// on a migrating stripe parks at the gate like any entrant — it holds
// deliverMu, which the barrier never takes, so the handshake is
// unaffected; the worker does occupy one WithDispatcherPool slot for the
// drain's duration, which is one more reason QuiesceTimeout is bounded.
// A pending async request parked this way holds no lease, so it never
// blocks the drain itself (the barrier waits on lease words alone).
// Second, the abandoned-grant path: a grant a supervisor Abandons (or a
// cancelled-but-granted request auto-abandons) becomes an ordinary
// orphan, and its recovery is driven entirely by sweeps — pool workers
// are not involved in healing, so a fully-blocked pool can never stall
// reclaim, and the eager first tick a restored table asks for (see
// supervisor.eager) runs before any pool worker has even spawned.

// SupervisorConfig tunes the background supervisor a LockTable starts
// when built WithSupervisor. The zero value is valid: reclaim-only
// supervision (no pool resizing, no migration) at the default cadence.
type SupervisorConfig struct {
	// Interval is the tick period. Each tick is scheduled with ±25%
	// jitter around it so many supervised tables in one process do not
	// beat against each other. <= 0 selects the 5ms default.
	Interval time.Duration

	// MaxHealsPerTick bounds how many stripes one tick claims orphans
	// from — the sweep's liveness budget, keeping a crash storm from
	// turning a tick into a full-table stall. Claimed recoveries run on
	// their own goroutines, and the claim cursor rotates round-robin so
	// every stripe is reached within shards/MaxHealsPerTick ticks.
	// <= 0 selects the default (4).
	MaxHealsPerTick int

	// AdaptivePorts enables the pool policy: cold stripes shrink toward
	// MinPorts at quiesce points (banking quota in the table's slack
	// pool), hot stripes grow out of it, and the acquire path steals from
	// it when a stripe exhausts its ports under skew.
	AdaptivePorts bool

	// MinPorts is the floor a stripe's active-port bound can shrink to.
	// <= 0 selects the default (2, or the stripe capacity if smaller).
	MinPorts int

	// Migrate enables stripe-shape migration: stripes whose observed
	// wakes-per-acquire profile disagrees with their current lock shape
	// are flipped live at quiesce points (see the safety argument above).
	Migrate bool

	// HotWakesPerOp is the wakes-per-acquire level above which a stripe
	// with a large active pool is considered hand-off bound and migrated
	// to the tree shape. <= 0 selects the default (3.0).
	HotWakesPerOp float64

	// ColdWakesPerOp is the level at or below which a small-pool stripe
	// is considered contention-free and migrated to the flat shape.
	// <= 0 selects the default (0.5).
	ColdWakesPerOp float64

	// HysteresisTicks is how many consecutive ticks must agree on a
	// stripe's desired shape before a migration is attempted, and how
	// many ticks a freshly migrated stripe is left alone afterwards —
	// the anti-flap guard. <= 0 selects the default (3).
	HysteresisTicks int

	// QuiesceTimeout bounds how long one migration attempt waits for its
	// stripe to drain before giving up and reopening the gate. <= 0
	// selects the default (50ms).
	QuiesceTimeout time.Duration
}

// supervisor defaults; see the corresponding SupervisorConfig fields.
const (
	defaultSupInterval    = 5 * time.Millisecond
	defaultSupHeals       = 4
	defaultSupMinPorts    = 2
	defaultSupHotWPO      = 3.0
	defaultSupColdWPO     = 0.5
	defaultSupHysteresis  = 3
	defaultSupQuiesce     = 50 * time.Millisecond
	supMigrateMinAcquires = 16 // min per-tick acquires before wpo is judged
	supBarrierPoll        = 50 * time.Microsecond
	supJitterQuarter      = 4 // jitter amplitude: interval/4 each way
)

func (c SupervisorConfig) withDefaults(ports int) SupervisorConfig {
	if c.Interval <= 0 {
		c.Interval = defaultSupInterval
	}
	if c.MaxHealsPerTick <= 0 {
		c.MaxHealsPerTick = defaultSupHeals
	}
	if c.MinPorts <= 0 {
		c.MinPorts = defaultSupMinPorts
	}
	if c.MinPorts > ports {
		c.MinPorts = ports
	}
	if c.HotWakesPerOp <= 0 {
		c.HotWakesPerOp = defaultSupHotWPO
	}
	if c.ColdWakesPerOp <= 0 {
		c.ColdWakesPerOp = defaultSupColdWPO
	}
	if c.HysteresisTicks <= 0 {
		c.HysteresisTicks = defaultSupHysteresis
	}
	if c.QuiesceTimeout <= 0 {
		c.QuiesceTimeout = defaultSupQuiesce
	}
	return c
}

// SupervisorStats is the supervisor's own activity snapshot, reported
// inside TableStats. On a table without WithSupervisor every field is
// zero except Steals, which the acquire path's work-stealing fallback
// also drives (it is part of the adaptive-pool machinery, not the
// supervisor goroutine).
type SupervisorStats struct {
	// Sweeps counts supervisor ticks (each tick is one budgeted sweep
	// pass, whether or not it found anything to heal).
	Sweeps uint64
	// StripesHealed / PortsHealed count orphan recoveries the supervisor
	// initiated: stripes with at least one claim, and individual ports.
	StripesHealed uint64
	PortsHealed   uint64
	// MigrationsToFlat / MigrationsToMCS / MigrationsToTree count
	// completed stripe-shape migrations by destination shape.
	MigrationsToFlat uint64
	MigrationsToMCS  uint64
	MigrationsToTree uint64
	// Grows / Shrinks count adaptive pool resizes by direction (events,
	// not ports).
	Grows   uint64
	Shrinks uint64
	// Steals counts ports the acquire path grew out of the table's slack
	// quota when a stripe exhausted its active ports under skew.
	Steals uint64
}

// Migrations returns the total completed migrations across directions.
func (s SupervisorStats) Migrations() uint64 {
	return s.MigrationsToFlat + s.MigrationsToMCS + s.MigrationsToTree
}

// supCounters is the live atomic mirror of SupervisorStats, embedded in
// every LockTable (the steal counter must exist without a supervisor).
type supCounters struct {
	sweeps        atomic.Uint64
	stripesHealed atomic.Uint64
	portsHealed   atomic.Uint64
	migToFlat     atomic.Uint64
	migToMCS      atomic.Uint64
	migToTree     atomic.Uint64
	grows         atomic.Uint64
	shrinks       atomic.Uint64
	steals        atomic.Uint64
}

func (c *supCounters) snapshot() SupervisorStats {
	return SupervisorStats{
		Sweeps:           c.sweeps.Load(),
		StripesHealed:    c.stripesHealed.Load(),
		PortsHealed:      c.portsHealed.Load(),
		MigrationsToFlat: c.migToFlat.Load(),
		MigrationsToMCS:  c.migToMCS.Load(),
		MigrationsToTree: c.migToTree.Load(),
		Grows:            c.grows.Load(),
		Shrinks:          c.shrinks.Load(),
		Steals:           c.steals.Load(),
	}
}

func (c *supCounters) noteMigration(to ShardBackend) {
	switch to {
	case FlatBackend:
		c.migToFlat.Add(1)
	case MCSBackend:
		c.migToMCS.Add(1)
	case TreeBackend:
		c.migToTree.Add(1)
	}
}

// supervisor is the background policy loop attached by WithSupervisor.
// All its per-stripe working state is preallocated at start, so a
// steady-state tick (nothing to heal, nothing to move) allocates nothing.
type supervisor struct {
	t   *LockTable
	cfg SupervisorConfig

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	// wg tracks the heal goroutines this supervisor spawned; join waits
	// for them so Close never returns with a recovery still in flight.
	wg sync.WaitGroup

	rng *xrand.Rand

	// Per-stripe observation windows (previous tick's counter values) and
	// migration bookkeeping, indexed by shard.
	lastAcquires []uint64
	lastWakes    []uint64
	lastDesired  []ShardBackend
	streak       []int
	cooldown     []int

	healCursor int
	claimBuf   []PortLease // claim-phase scratch, reused every tick

	// eager makes run perform an immediate first tick before arming the
	// interval timer. RestoreTable sets it when the restored image carried
	// orphans: a system-wide crash leaves every in-flight tenancy of the
	// dead incarnation orphaned at once, and a supervised restore should
	// start healing them right away rather than sleeping a full Interval
	// while the whole arena is stalled behind dead holders.
	eager bool
}

// startSupervisor wires the supervisor into the table and launches its
// loop; called from finishInit when WithSupervisor was given. With eager
// set the loop runs its first tick immediately (the restore path's
// sweep-before-first-grant; see supervisor.eager).
func (t *LockTable) startSupervisor(cfg SupervisorConfig, eager bool) {
	cfg = cfg.withDefaults(t.ports)
	t.adaptive = cfg.AdaptivePorts
	t.minPorts = cfg.MinPorts
	n := len(t.shards)
	s := &supervisor{
		t:            t,
		cfg:          cfg,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		rng:          xrand.New(t.seed ^ 0xa5a5a5a5a5a5a5a5),
		lastAcquires: make([]uint64, n),
		lastWakes:    make([]uint64, n),
		lastDesired:  make([]ShardBackend, n),
		streak:       make([]int, n),
		cooldown:     make([]int, n),
		claimBuf:     make([]PortLease, 0, t.ports),
		eager:        eager,
	}
	t.sup = s
	go s.run()
}

// join stops the loop and waits for it — and for every heal goroutine it
// spawned — to finish. Idempotent; called from Close.
func (s *supervisor) join() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
	s.wg.Wait()
}

// run is the supervisor goroutine: tick, act, re-arm with jitter.
func (s *supervisor) run() {
	defer close(s.done)
	if s.eager {
		s.tick()
	}
	timer := time.NewTimer(s.jittered())
	defer timer.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-timer.C:
		}
		s.tick()
		timer.Reset(s.jittered())
	}
}

// jittered returns the next tick delay: Interval ±25%.
func (s *supervisor) jittered() time.Duration {
	base := s.cfg.Interval
	amp := base / supJitterQuarter
	if amp <= 0 {
		return base
	}
	return base - amp + time.Duration(s.rng.Uint64()%uint64(2*amp))
}

// tick is one supervision pass: budgeted orphan sweep, then the pool and
// migration policies. Steady state (nothing to do) performs no allocation
// and no locking — only atomic loads over the stripes' counters.
func (s *supervisor) tick() {
	s.t.supc.sweeps.Add(1)
	s.sweepOrphans()
	if s.cfg.AdaptivePorts {
		s.resizePools()
	}
	if s.cfg.Migrate {
		s.judgeMigrations()
	}
}

// sweepOrphans claims orphans from at most MaxHealsPerTick stripes
// (round-robin from the rotating cursor) and spawns one recovery
// goroutine per claimed port. Recoveries run concurrently and are never
// waited for inside the tick — two orphans can be queued behind each
// other's dead nodes, and a batch tenancy's stripes can depend on each
// other through live waiters, so a sweep that blocked on one recovery
// could stall the very heals that would unblock it. Stripes beyond the
// budget keep their orphans for the next tick; the cursor guarantees
// every stripe is visited.
func (s *supervisor) sweepOrphans() {
	t := s.t
	n := len(t.shards)
	healed, scanned := 0, 0
	for i := 0; i < n && healed < s.cfg.MaxHealsPerTick; i++ {
		sh := &t.shards[(s.healCursor+i)%n]
		scanned = i + 1
		s.claimBuf = sh.pool.claimOrphans(s.claimBuf[:0])
		if len(s.claimBuf) == 0 {
			continue
		}
		healed++
		t.supc.stripesHealed.Add(1)
		t.supc.portsHealed.Add(uint64(len(s.claimBuf)))
		for _, l := range s.claimBuf {
			s.wg.Add(1)
			go s.heal(sh, l)
		}
	}
	if healed >= s.cfg.MaxHealsPerTick {
		// The budget cut the scan short: rotate the cursor past the
		// visited region so a persistently crashy prefix cannot starve
		// the stripes behind it; a full scan leaves the cursor alone.
		s.healCursor = (s.healCursor + scanned) % n
	}
}

// heal runs one claimed orphan's recovery to completion — the same
// Lock/Unlock recovery loop ReclaimWith runs, absorbing injected crashes
// — and returns the port to the pool. It holds a Reclaiming lease
// throughout, which keeps the stripe's InUse above zero and therefore
// pins the backend: a migration barrier waits for this heal like for any
// tenancy, so loading sh.m() once here is safe.
func (s *supervisor) heal(sh *lockShard, l PortLease) {
	defer s.wg.Done()
	m := sh.m()
	for {
		if crashes(func() { m.LockDone(l.Port, nil) }) {
			continue
		}
		if !crashes(func() { m.Unlock(l.Port) }) {
			break
		}
	}
	sh.pool.finishReclaim(l)
}

// resizePools is the adaptive-pool policy: one pass over the stripes,
// shrinking idle cold ones (banking the quota in the table's slack pool)
// and growing ones with parked lease acquirers out of it. The grow half
// complements the acquire path's work-stealing fallback — stealing covers
// the instant a stripe runs dry; this covers sustained pressure, waking
// the parked acquirers a steal cannot see.
func (s *supervisor) resizePools() {
	t := s.t
	for i := range t.shards {
		sh := &t.shards[i]
		acq := sh.acquires.Load()
		delta := acq - s.lastAcquires[i]
		pool := sh.pool
		active := pool.Active()
		switch {
		case delta == 0 && active > t.minPorts && pool.InUse() == 0 && pool.chain.Waiters() == 0:
			// Cold and idle: halve toward the floor. Lazy on the pool side
			// (see Resize) — tenancies on deactivated ports, were any to
			// race in, run to their natural end.
			target := active / 2
			if target < t.minPorts {
				target = t.minPorts
			}
			got := pool.Resize(target)
			if got < active {
				t.slack.Add(int64(active - got))
				t.supc.shrinks.Add(1)
			}
		case pool.chain.Waiters() > 0 && active < pool.Ports():
			// Parked acquirers under the current bound: spend slack to
			// widen it, bounded by capacity, and broadcast (via Resize) so
			// the waiters rescan.
			want := pool.chain.Waiters()
			if room := pool.Ports() - active; want > room {
				want = room
			}
			grant := int(t.slack.Load())
			if grant > want {
				grant = want
			}
			if grant > 0 && s.takeSlack(grant) {
				got := pool.Resize(active + grant)
				if added := got - active; added > 0 {
					t.supc.grows.Add(1)
					if added < grant {
						t.slack.Add(int64(grant - added))
					}
				} else {
					t.slack.Add(int64(grant))
				}
			}
		}
	}
}

// takeSlack atomically debits k from the table's slack quota, failing if
// the quota has fewer than k ports banked.
func (s *supervisor) takeSlack(k int) bool {
	for {
		cur := s.t.slack.Load()
		if cur < int64(k) {
			return false
		}
		if s.t.slack.CompareAndSwap(cur, cur-int64(k)) {
			return true
		}
	}
}

// judgeMigrations runs the shape policy over every stripe and attempts at
// most one migration per tick (migrations serialize on migMu anyway, and
// one per tick keeps the supervisor responsive under its own budget).
//
// The policy mirrors AutoBackend's cost model, but judged on observation
// instead of prediction: sustained wakes-per-acquire above HotWakesPerOp
// on a large active pool means the stripe is paying hand-off RMR that the
// tree's O(log k / log log k) levels would bound — go tree. Wakes at or
// below ColdWakesPerOp on a small pool means uncontended passages
// dominate and the flat lock's simplicity wins — go flat. Everything in
// between takes MCS's O(1) local-spin middle ground. A stripe must hold
// the same verdict for HysteresisTicks consecutive ticks (with at least
// supMigrateMinAcquires acquisitions per tick, so idle stripes are never
// judged) before the swap is attempted, and sits out HysteresisTicks
// after one — the two guards that keep the table from flapping.
func (s *supervisor) judgeMigrations() {
	t := s.t
	migrated := false
	for i := range t.shards {
		sh := &t.shards[i]
		acq := sh.acquires.Load()
		wakes := sh.stats.Wakes.Load()
		dAcq := acq - s.lastAcquires[i]
		dWakes := wakes - s.lastWakes[i]
		s.lastAcquires[i] = acq
		s.lastWakes[i] = wakes
		if s.cooldown[i] > 0 {
			s.cooldown[i]--
			s.streak[i] = 0
			continue
		}
		if dAcq < supMigrateMinAcquires {
			s.streak[i] = 0
			continue
		}
		wpo := float64(dWakes) / float64(dAcq)
		desired := s.desiredBackend(sh, wpo)
		if desired == s.lastDesired[i] {
			s.streak[i]++
		} else {
			s.lastDesired[i] = desired
			s.streak[i] = 1
		}
		if migrated || s.streak[i] < s.cfg.HysteresisTicks {
			continue
		}
		if desired == ShardBackend(sh.backend.Load()) {
			continue
		}
		if t.migrateShard(i, desired, s.cfg.QuiesceTimeout) {
			migrated = true
			s.cooldown[i] = s.cfg.HysteresisTicks
			s.streak[i] = 0
		}
	}
}

// desiredBackend maps one stripe's observed wakes-per-acquire and active
// pool width to the shape the policy wants.
func (s *supervisor) desiredBackend(sh *lockShard, wpo float64) ShardBackend {
	active := sh.pool.Active()
	switch {
	case wpo > s.cfg.HotWakesPerOp && active > autoFlatPortThreshold:
		return TreeBackend
	case wpo <= s.cfg.ColdWakesPerOp && active <= autoFlatPortThreshold:
		return FlatBackend
	default:
		if sh.pool.Ports() > mcsMaxPorts {
			return TreeBackend // MCS refs cannot address this many ports
		}
		return MCSBackend
	}
}

// migrateShard flips stripe si's lock backend to target at a proven
// quiesce point; see the safety argument at the top of the file. It
// reports whether the swap happened — false means the stripe would not
// drain within timeout (or already has the target shape) and keeps its
// current backend, with the gate reopened either way.
func (t *LockTable) migrateShard(si int, target ShardBackend, timeout time.Duration) bool {
	target = target.resolve(t.ports)
	t.migMu.Lock()
	defer t.migMu.Unlock()
	sh := &t.shards[si]
	if ShardBackend(sh.backend.Load()) == target {
		return true
	}
	sh.gateClosed.Store(true)
	// Waiters parked on the pool chain must migrate to the gate (their
	// leaseCond includes gateClosed); wake them all to re-route.
	sh.pool.chain.Broadcast()
	defer t.reopenGate(sh)

	deadline := time.Now().Add(timeout)
	var sweeping atomic.Bool
	for {
		if sh.pool.InUse() == 0 {
			if fn, ok := sh.m().quiesceExport(); ok {
				nm := sh.mk(target)
				if fn != nil {
					nm.SetCrashFunc(fn)
				}
				sh.lk.Store(&nm)
				sh.backend.Store(int32(target))
				t.supc.noteMigration(target)
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		// The stripe may be waiting on its own orphans (a crashed or
		// abandoned tenancy holds InUse up forever without a sweep).
		// Spawn an asynchronous table-wide sweep — never synchronous: a
		// batch orphan's recovery can block on other stripes, and this
		// goroutine must keep polling, not join that dependency chain.
		if stripeOrphans(sh) > 0 && sweeping.CompareAndSwap(false, true) {
			go func() {
				t.Reclaim()
				sweeping.Store(false)
			}()
		}
		time.Sleep(supBarrierPoll)
	}
}

// reopenGate releases a stripe's migration barrier: entrants parked on
// the gate chain resume, and pool-chain waiters are re-broadcast in case
// any parked against the closed gate's leaseCond without re-routing.
func (t *LockTable) reopenGate(sh *lockShard) {
	sh.gateClosed.Store(false)
	sh.gate.Broadcast()
	sh.pool.chain.Broadcast()
}

// stripeOrphans counts one stripe's orphaned (not yet claimed) ports.
func stripeOrphans(sh *lockShard) int {
	n := 0
	for p := 0; p < sh.pool.Ports(); p++ {
		if sh.pool.State(p) == LeaseOrphaned {
			n++
		}
	}
	return n
}
