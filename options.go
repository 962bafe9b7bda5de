package rme

import (
	"runtime"

	"github.com/rmelib/rme/internal/wait"
)

// WaitStrategy selects how a waiter in the lock stack passes the time
// between opening its wait episode and being woken: every busy-wait in the
// runtime port — the Signal object's wait, the repair lock's tournament
// entry — goes through the same internal/wait engine, and the strategy is
// its tuning knob. The engine's spin words are generation-stamped and
// reusable, so no strategy allocates on the steady-state blocking path.
// Construct one with YieldWaitStrategy, SpinWaitStrategy, or
// SpinParkWaitStrategy.
type WaitStrategy = wait.Strategy

// WaitStats is the wait engine's event-counter block (publishes, sleeps,
// wakes, parks, spin rounds). Wakes is the RMR proxy on a CC machine: each
// wake is one remote write to another process's spin word. TreeMutex hands
// out one per level via LevelStats when built with
// WithTreeInstrumentation.
type WaitStats = wait.Stats

// YieldWaitStrategy probes the spin word and yields to the Go scheduler
// between probes. This is the default: it behaves reasonably at any ratio
// of ports to GOMAXPROCS, at the cost of scheduler round-trips on every
// handoff.
func YieldWaitStrategy() WaitStrategy { return wait.Yield() }

// SpinWaitStrategy spins with procyield-style exponential backoff and no
// scheduler interaction until a generous budget is exhausted. It has the
// lowest handoff latency when every waiter owns a core; do not use it when
// runnable waiters can exceed GOMAXPROCS.
func SpinWaitStrategy() WaitStrategy { return wait.Spin() }

// SpinParkWaitStrategy spins for spinRounds backoff rounds, then parks the
// goroutine on a channel until the wake arrives. This is the strategy for
// oversubscribed workloads (ports ≫ GOMAXPROCS), where spinning waiters
// would otherwise starve the one goroutine able to make progress.
// spinRounds <= 0 selects a small default.
func SpinParkWaitStrategy(spinRounds int) WaitStrategy { return wait.SpinThenPark(spinRounds) }

// Option configures a Mutex or TreeMutex at construction.
type Option func(*config)

type config struct {
	strat        wait.Strategy
	pool         bool
	treeStats    bool
	seed         uint64
	seedSet      bool
	dispSpin     int
	dispPool     int
	asyncPrewarm int
	backend      ShardBackend
	backendSet   bool
	shardStrat   func(shard int) WaitStrategy
	sup          *SupervisorConfig
}

// dispatcherPool resolves the executor's worker bound: the explicit
// WithDispatcherPool value, or the default — GOMAXPROCS, floored at 4.
// GOMAXPROCS is the natural ceiling on useful delivery parallelism (a
// worker is CPU-bound between blocking waits); the floor keeps a small
// reserve of workers on low-core hosts so a delivery blocked behind an
// unsettled grant does not single-handedly stall every other stripe's
// async pipeline (see the pool-liveness note in locktable_async.go).
func (c config) dispatcherPool() int {
	if c.dispPool > 0 {
		return c.dispPool
	}
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}

func buildConfig(opts []Option) config {
	c := config{strat: wait.Yield()}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithWaitStrategy selects the busy-wait discipline for every wait in the
// lock (and, on a TreeMutex, in every tree node). A nil strategy keeps the
// default (YieldWaitStrategy).
func WithWaitStrategy(s WaitStrategy) Option {
	return func(c *config) {
		if s != nil {
			c.strat = s
		}
	}
}

// WithNodePool recycles queue nodes through a small per-port free list
// once their successor is provably done with them, making the crash-free
// Lock/Unlock fast path allocation-free. Nodes whose reuse cannot be
// proven safe (a queue repair was in flight) are conservatively leaked to
// the garbage collector, so crash recovery is unaffected.
func WithNodePool(enabled bool) Option {
	return func(c *config) { c.pool = enabled }
}

// WithTableSeed fixes a LockTable's key-hashing seed, making the
// key-to-shard mapping reproducible across runs — deterministic tests and
// benchmarks want this. By default each table draws a distinct seed so
// that two tables over the same keys do not share hot shards. New and
// NewTree ignore the option.
func WithTableSeed(seed uint64) Option {
	return func(c *config) {
		c.seed = seed
		c.seedSet = true
	}
}

// WithDispatcherSpin sets how many backoff rounds each of a LockTable's
// shared dispatcher workers spins for the next runnable stripe after the
// run queue empties, before parking on the pool's idle chain. An idle
// pool always ends at a real park — never a yield loop — whatever the
// table's worker-side wait strategy; this knob only sizes the spin
// window that lets a loaded pipeline catch the next burst's wake without
// paying the park/unpark round trip. Values <= 0 select the engine's
// small default. New and NewTree ignore the option.
func WithDispatcherSpin(rounds int) Option {
	return func(c *config) { c.dispSpin = rounds }
}

// WithDispatcherPool bounds the shared dispatcher runtime: at most n
// worker goroutines serve every stripe's async deliveries, spawned
// lazily as traffic demands and parked on one idle chain when the run
// queue is empty (see dispatch.go). The bound is the async tier's whole
// goroutine footprint — an idle table holds at most n dispatcher
// goroutines however many stripes have seen traffic, and
// TableStats.Dispatcher reports the pool's live/engaged/backlog gauges.
//
// n trades footprint against delivery parallelism and, at the extreme,
// liveness: a worker delivering a grant blocks until the stripe's
// current holder settles, so workloads that deliberately park many
// unreceived grants while issuing more async traffic should size n to
// that concurrency (see the pool-liveness note in locktable_async.go).
// Values <= 0 select the default: GOMAXPROCS, floored at 4. New and
// NewTree ignore the option.
func WithDispatcherPool(n int) Option {
	return func(c *config) { c.dispPool = n }
}

// WithAsyncPrewarm pre-builds n async request nodes (each owning its
// reusable grant channel) on every shard's free list at construction,
// and spawns the dispatcher pool's full complement of workers eagerly —
// for callers that pin allocation budgets from the first request rather
// than steady state. Request free lists are per shard, so the guarantee
// must be too: with the prewarm in place, the calling side of LockAsync
// / LockAsyncFunc allocates nothing even for a stripe's very first
// request (up to n in flight per stripe) — without it, a cold table's
// early submissions may pay the pool's lazy worker spawns. The lock
// protocol behind the delivery still fills its own node pools over each
// stripe's first few passages, on the engaged worker, exactly as any
// cold lock does.
//
// The up-front cost is Shards()×n request nodes plus the
// WithDispatcherPool(n) workers, idle-parked (they would otherwise spawn
// lazily as traffic demands); Close winds the pool down. The steady-state
// behavior is unaffected: nodes are recycled and each free list grows to
// its stripe's in-flight high-water mark either way. New and NewTree
// ignore the option.
func WithAsyncPrewarm(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.asyncPrewarm = n
		}
	}
}

// WithShardBackend selects the lock shape a LockTable builds its shards
// from: the flat k-ported Mutex, the k-process arbitration TreeMutex, the
// recoverable MCS queue lock MCSMutex, or an automatic choice by port
// count. See ShardBackend for when each wins. The default is AutoBackend.
// New, NewTree, and NewMCS ignore the option.
// RestoreTable treats an explicit WithShardBackend as an assertion about
// the checkpoint being restored: the resolved shape must match the
// checkpointed table's, or the restore errors (a silent shape change would
// invalidate the committed baselines' comparability and the caller's
// sizing assumptions). Omit the option to inherit the checkpoint's shape.
func WithShardBackend(b ShardBackend) Option {
	return func(c *config) {
		c.backend = b
		c.backendSet = true
	}
}

// WithShardStrategy installs a per-shard wait-strategy hook on a
// LockTable: fn is called once per shard at construction, and a non-nil
// result overrides WithWaitStrategy for that shard's lock and lease pool
// (a nil result keeps the table-wide strategy). This is how heterogeneous
// arenas are built — e.g. the shards a load model says will be hot on
// SpinWaitStrategy for the lowest handoff latency, the long cold tail on
// SpinParkWaitStrategy so idle stripes cost parked goroutines rather than
// burned quanta:
//
//	rme.NewLockTable(shards, ports, rme.WithShardStrategy(func(s int) rme.WaitStrategy {
//		if hot(s) {
//			return rme.SpinWaitStrategy()
//		}
//		return rme.SpinParkWaitStrategy(64)
//	}))
//
// The hook shapes only how waiters pass the time; correctness (mutual
// exclusion, crash recovery, the striping contracts) is identical across
// strategies, so mixing them within one table is safe. The dispatcher
// pool's idle parking is not affected (it is always spin-then-park; see
// WithDispatcherSpin). New and NewTree ignore the option.
func WithShardStrategy(fn func(shard int) WaitStrategy) Option {
	return func(c *config) { c.shardStrat = fn }
}

// WithSupervisor attaches a background supervisor goroutine to a
// LockTable: a loop that periodically sweeps orphaned ports (and
// abandoned async grants, which park in the same orphan state) under a
// liveness budget. A supervised table needs no caller-driven Reclaim
// pattern: crash, cancel-after-grant, and abandoned-grant debris all heal
// in the background. Close() stops the supervisor and joins it before
// winding down the dispatchers.
//
// The zero SupervisorConfig is valid and selects the default cadence and
// budget. New, NewTree, and NewMCS ignore the option.
func WithSupervisor(sc SupervisorConfig) Option {
	return func(c *config) { c.sup = &sc }
}

// WithTreeInstrumentation makes NewTree attach a WaitStats counter block
// to every tree level (retrievable with TreeMutex.LevelStats), so the
// hand-off cost of each level of the arbitration tree — the per-level RMR
// proxy — can be reported, as cmd/rmebench's tree scenario does. It costs
// a few atomic increments per wait event and is therefore off by default;
// New ignores it (the flat lock's single level is instrumented by wrapping
// the strategy with wait.Instrumented instead).
func WithTreeInstrumentation(enabled bool) Option {
	return func(c *config) { c.treeStats = enabled }
}
