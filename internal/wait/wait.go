// Package wait is the busy-wait engine of the runtime lock stack: the
// publish-a-spin-word / set / wake / consume-and-recheck protocol that the
// paper's Signal object (Figure 2) and repair-lock tournament (internal/rlock)
// both build on, extracted once so every wait in the stack shares a single,
// tunable implementation.
//
// # Protocol
//
// A waiting process opens a wait episode on a Cell its peers know about
// (Cell.Begin), re-checks the condition it is waiting for, and goes to
// sleep on the Cell's Waiter. A peer that changes the condition calls
// Cell.Wake, which delivers a wake to whichever episode is currently open.
// Waits that must re-check a condition in a loop (the tournament lock's
// entry protocol) call Waiter.Consume after each wake and loop; spurious
// wakes are therefore always harmless.
//
// A waiter whose condition is a one-shot flag can keep the flag in the
// Cell itself: Cell.Latch sets a latch bit in the episode's own word and
// wakes the open episode with the same CAS, and Cell.Latched is the
// condition. This is the Signal object's set, and a Latch with nobody
// waiting delivers (and counts) no wake.
//
// # Generations: why reuse is as crash-safe as fresh allocation
//
// The paper allocates a fresh spin variable per blocking wait (Figure 2
// line 5), and an earlier version of this package did the same: the
// freshness was the crash-safety argument, because a wake aimed at a spin
// word that a crashed process abandoned lands on garbage and is simply
// lost, never leaking into the re-executed wait's fresh word.
//
// This package gets the identical semantics without the allocation. Each
// Cell owns one reusable Waiter whose atomic word packs a 32-bit
// generation next to the wait state. Begin stamps a fresh generation
// (clearing the state); a waker snapshots the word once and then delivers
// its wake by CAS-ing the state only for the generation it snapshotted. A
// stale wake — one whose snapshot predates a crash-and-re-execute (or any
// republication) — carries an old generation, its CAS fails, and the wake
// is lost, exactly as if it had landed on an abandoned allocation. A wake
// whose snapshot follows the republication targets the live episode and is
// delivered. There is no third case, so the case analysis of the
// fresh-allocation argument carries over unchanged, and the crash-free
// blocking path performs zero allocations.
//
// The missed-wakeup argument also carries over. A setter changes the
// condition before (in the sequentially-consistent order of the word's
// atomics) it snapshots the word; the waiter stamps the generation before
// it re-checks the condition. If the snapshot precedes the stamp, the wake
// is lost — but then the condition change also precedes the stamp, and the
// waiter's post-stamp re-check observes it and never sleeps. If the
// snapshot follows the stamp, the wake is delivered to the live episode.
//
// Generations are 32-bit and wrap around; only equality is ever compared,
// so wraparound is harmless unless a waker stalls for exactly 2^32
// republications of one slot between its snapshot and its CAS.
//
// The park channel is part of the same reuse story: it is created once
// (lazily, by the parking strategy's first Attach on the slot) and reused
// by every later episode. A wake token sent to an episode that was
// abandoned after its waker committed the state transition can therefore
// surface in a later episode as a stale token; ParkDone guards against
// that by re-checking the packed word after every channel receive and
// re-parking on tokens that do not correspond to a delivered wake.
//
// # Strategies
//
// How a Waiter passes the time between Begin and being woken is the
// Strategy: pure spinning with procyield-style backoff (lowest handoff
// latency, pathological when runnable waiters exceed GOMAXPROCS),
// spin-then-park on the reusable channel (survives heavy oversubscription),
// or yielding to the Go scheduler on every probe (the conservative
// default). All three deliver wakes through the same packed-word state
// machine, so the crash-safety argument is strategy-independent.
//
// # Cancellation
//
// Every wait has one body, and it takes a cancellation channel:
// Strategy.SleepDone, Waiter.ParkDone, Cell.AwaitDone, Chain.WaitDone. A
// nil channel never fires (a receive from it in a select is never ready),
// so a nil done is exactly the uncancellable wait; the only plain form
// left is Strategy.Sleep, which is SleepDone with nil.
package wait

import (
	"runtime"
	"sync/atomic"
)

// Waiter states, held in the low bits of the packed word. A Waiter moves
// Empty→Set on wake, Empty→Parked when the waiter blocks on the channel,
// Parked→Set on wake (with a channel send), and Set→Empty on Consume.
// Begin moves any state to Empty while bumping the generation; Reset and a
// cancelled AwaitDone move it to Idle. Idle means no episode is open, so a
// wake (or a Latch) that finds it delivers nothing and counts nothing. The
// zero word is Idle.
//
// latchBit is a persistent flag riding next to the state: the Signal
// object's Bit (Figure 2), kept in the same word so that setting it and
// waking the episode open on it is one CAS (Cell.Latch). Every state
// transition preserves it; only Reset clears it.
const (
	stateIdle uint64 = iota
	stateEmpty
	stateSet
	stateParked

	stateMask uint64 = 3
	latchBit  uint64 = 4
	genShift         = 32
)

func pack(gen uint32, state uint64) uint64 { return uint64(gen)<<genShift | state }

func genOf(word uint64) uint32 { return uint32(word >> genShift) }

// Waiter is one reusable generation-stamped spin word: the unit a single
// waiting process spins (or parks) on. It is owned by its Cell and recycled
// for every episode; see the package comment for why that is as crash-safe
// as allocating it fresh.
type Waiter struct {
	// word packs (generation << genShift | state) into one atomic 64-bit
	// cell, so a wake can check the generation and deliver in a single CAS.
	word atomic.Uint64
	// ch is the reusable park token channel, created once by the parking
	// strategy's Attach and never replaced. It is written before (and read
	// after) operations on word, which order the plain accesses.
	ch chan struct{}
	// stats is the instrumentation sink bound at Begin; atomic because
	// stale wakers may read it concurrently with a rebind.
	stats atomic.Pointer[Stats]
}

// begin opens a fresh episode: bump the generation, set the state to Empty
// (keeping the latch bit), and drain any park token leaked by a waker of a
// dead episode. It is a CAS loop rather than a blind Swap because a
// concurrent Latch may land between the load and the write, and its bit
// must survive; the read-modify-write is also what hands the previous
// episode's happens-before edges — including the park channel's creation —
// to a replacement goroutine.
func (w *Waiter) begin() {
	w.restamp(stateEmpty)
	if w.ch != nil {
		select {
		case <-w.ch:
		default:
		}
	}
}

// restamp bumps the generation and moves the state to state, keeping the
// latch bit: every wake aimed at the old generation dies on its CAS.
func (w *Waiter) restamp(state uint64) {
	for {
		cur := w.word.Load()
		g := genOf(cur) + 1 // wraps at 2^32, deliberately
		if w.word.CompareAndSwap(cur, pack(g, state)|cur&latchBit) {
			return
		}
	}
}

// gen reports the current episode's generation (test hook; the waiter's own
// strategy code never needs it because only the waiter bumps it).
func (w *Waiter) gen() uint32 { return genOf(w.word.Load()) }

// Woken reports whether a wake has been delivered to the current episode
// since the last Consume.
func (w *Waiter) Woken() bool { return w.word.Load()&stateMask == stateSet }

// Consume clears a delivered wake so the Waiter can be waited on again
// (the tournament lock's consume-then-re-check discipline) without closing
// the episode: the generation is kept. It reports whether a wake was
// actually consumed.
//
// Consume is a CAS loop that only ever retires a Set state it observed: a
// Consume that finds no delivered wake writes nothing, so a wake landing
// between its load and its (non-)store is delivered, not clobbered. The
// earlier blind load-clear-store was safe only because every current
// caller happens to re-check its condition after consuming; the CAS form
// makes the no-lost-wake contract a property of the engine itself, so
// future callers (and spurious consumes generally) need no such
// discipline.
func (w *Waiter) Consume() bool {
	for {
		cur := w.word.Load()
		if cur&stateMask != stateSet {
			return false // nothing delivered; leave a racing wake intact
		}
		if w.word.CompareAndSwap(cur, cur&^stateMask|stateEmpty) {
			return true
		}
	}
}

// open reports whether word carries an open, not yet woken episode — the
// only states a wake is delivered to.
func open(word uint64) bool {
	s := word & stateMask
	return s == stateEmpty || s == stateParked
}

// wake delivers a wake to episode gen: CAS the state to Set only if the
// word still carries that generation and the episode is open. Returns
// whether the wake was delivered; a stale generation (the target episode
// was abandoned or completed), an idle word or an already-set state means
// it was lost or collapsed — deliberately, see the package comment.
func (w *Waiter) wake(gen uint32) bool {
	for {
		cur := w.word.Load()
		if genOf(cur) != gen || !open(cur) {
			return false
		}
		if w.word.CompareAndSwap(cur, cur&^stateMask|stateSet) {
			w.delivered(cur)
			return true
		}
	}
}

// delivered finishes a wake whose CAS moved the word out of prev: a parked
// waiter gets its channel token, and the wake is counted.
func (w *Waiter) delivered(prev uint64) {
	if prev&stateMask == stateParked {
		select {
		case w.ch <- struct{}{}:
		default: // a stale token already fills the buffer; it substitutes
		}
	}
	if st := w.stats.Load(); st != nil {
		st.Wakes.Add(1)
	}
}

// ParkDone blocks until a wake is delivered to the current episode or done
// is closed, sleeping on the Waiter's channel, and reports whether the
// episode was woken; a nil done never fires, so ParkDone(nil) returns only
// once woken. A channel token is only a hint: tokens leaked by wakers of
// dead episodes wake ParkDone spuriously, so it re-checks the packed word
// after every receive and re-parks until the wake is real. On a Waiter
// whose strategy never created the channel it degrades to yielding.
//
// A false return leaves the packed word as it stands (possibly Parked); the
// caller retires the episode (Cell.AwaitDone does) so a racing wake dies on
// its generation CAS instead of leaking into a later episode.
func (w *Waiter) ParkDone(done <-chan struct{}) bool {
	if w.ch == nil {
		for !w.Woken() {
			select {
			case <-done:
				return w.Woken()
			default:
			}
			runtime.Gosched()
		}
		return true
	}
	for {
		cur := w.word.Load()
		switch cur & stateMask {
		case stateSet:
			return true
		case stateEmpty:
			if !w.word.CompareAndSwap(cur, cur&^stateMask|stateParked) {
				continue
			}
			if st := w.stats.Load(); st != nil {
				st.Parks.Add(1)
			}
		}
		select {
		case <-w.ch:
		case <-done:
			return w.Woken()
		}
	}
}

// Cell is a publication slot: the shared word through which peers find the
// current wait episode (the Signal object's GoAddr, the tournament lock's
// GoAddr[p][l]). It owns the one reusable Waiter every episode on this slot
// runs on. The zero Cell is empty and ready to use.
type Cell struct {
	w Waiter
}

// Begin opens a fresh wait episode on the Cell's Waiter and returns it:
// the replacement for allocating and publishing a fresh spin word. Any
// pending wakes aimed at earlier episodes are thereby lost — deliberately.
// The caller must re-check its wait condition after Begin and before
// sleeping (AwaitDone does this for the single-shot case).
func (c *Cell) Begin(st Strategy) *Waiter {
	st.Attach(&c.w)
	c.w.begin()
	return &c.w
}

// Wake delivers a wake to the episode currently open on the Cell, if any.
// The generation is snapshotted once: if the episode is republished after
// the snapshot, this wake is aimed at the abandoned episode and is lost.
func (c *Cell) Wake() {
	cur := c.w.word.Load()
	if !open(cur) {
		return // nobody to wake, or a duplicate: no CAS
	}
	c.w.wake(genOf(cur))
}

// Latch sets the Cell's persistent latch bit and wakes the episode open on
// it, if any, in one CAS — the Signal object's set (Figure 2 lines 1–4)
// with the bit and the spin word fused. Because the bit lives in the
// episode's own word, there is no set-then-snapshot window: an episode
// opened before the CAS is woken by it, and one opened after it finds the
// bit on its re-check (Begin keeps the bit). A Latch that finds no open
// episode delivers and counts no wake, and a Latch on an already latched
// Cell writes nothing.
func (c *Cell) Latch() {
	w := &c.w
	for {
		cur := w.word.Load()
		if cur&latchBit != 0 {
			return
		}
		next := cur | latchBit
		if open(cur) {
			next = next&^stateMask | stateSet
		}
		if w.word.CompareAndSwap(cur, next) {
			if open(cur) {
				w.delivered(cur)
			}
			return
		}
	}
}

// Latched reports whether the latch bit is set.
func (c *Cell) Latched() bool { return c.w.word.Load()&latchBit != 0 }

// Reset readies the Cell for a recycled protocol life (a pooled queue node
// starting a fresh passage) with one store: the latch is cleared, no
// episode is open, and the generation is bumped, so in-flight wakes aimed
// at the old life die on their CAS. It must only run while no peer can
// reach the Cell. The load that precedes the store observes the previous
// life's last write, which is the happens-before edge Begin's
// read-modify-write gives a replacement waiter.
func (c *Cell) Reset() {
	c.w.word.Store(pack(genOf(c.w.word.Load())+1, stateIdle))
}

// AwaitDone opens an episode, re-checks cond, and sleeps until a wake
// arrives or done is closed — the single-shot wait of the Signal object
// (Figure 2 lines 5–9). cond must become true before (in happens-before
// order) the corresponding Cell.Wake, which is exactly the
// set-bit-then-wake discipline of signal setters; AwaitDone re-checks it
// after stamping the generation so a wake that raced ahead of the stamp is
// never missed.
//
// It returns cond()'s final value: true when the wait ended woken (or the
// condition was already true), false only when the wait was cancelled with
// the condition still false. A nil done never cancels, so AwaitDone(…, nil)
// always returns true. Checking cond once more after a cancelled sleep is
// what makes a cancel-vs-wake race settle deterministically: a waker that
// set the condition and delivered its wake concurrently with the
// cancellation is observed here, and the caller proceeds as woken.
//
// On cancellation the episode is retired (generation bumped) before the
// final cond check, so a racing wake aimed at it dies on its CAS — exactly
// the fate of a wake aimed at a crashed process's abandoned spin word. That
// is safe for condition-style waits, where wakes are hints over persistent
// state; callers whose wakes are consumable resources (one handed out per
// release) must forward a racing wake instead of dropping it, which is what
// Chain.WaitDone layers on top of this.
func (c *Cell) AwaitDone(st Strategy, cond func() bool, done <-chan struct{}) bool {
	w := c.Begin(st)
	if cond() {
		return true
	}
	if st.SleepDone(w, done) {
		return true
	}
	c.w.restamp(stateIdle) // retire the cancelled episode: racing wakes die on their CAS
	return cond()
}

// Stats counts wait-engine events; attach one to a Strategy with
// Instrumented. Wakes is the RMR proxy on a CC machine: each wake is one
// remote write to another process's spin word, and each sleep that it
// terminates is the matching remote-read miss. Everything a strategy does
// between Begin and wake (Spins, Parks) is local by construction.
type Stats struct {
	Publishes  atomic.Uint64 // episodes opened (Cell.Begin calls)
	Sleeps     atomic.Uint64 // sleeps that found the wake not yet delivered
	Wakes      atomic.Uint64 // wake deliveries to an open episode (none without a waiter)
	Parks      atomic.Uint64 // sleeps that escalated to a channel park
	SpinRounds atomic.Uint64 // backoff rounds spent spinning
}

// Reset zeroes every counter (e.g. after a benchmark warm-up pass).
func (s *Stats) Reset() {
	s.Publishes.Store(0)
	s.Sleeps.Store(0)
	s.Wakes.Store(0)
	s.Parks.Store(0)
	s.SpinRounds.Store(0)
}

// Strategy is how a waiting process passes the time between opening its
// episode and receiving a wake. A given Cell is meant to be driven by one
// strategy for its whole life (the lock stack fixes it at construction).
type Strategy interface {
	// Attach readies the Cell's reusable Waiter for one episode; it runs
	// before the generation stamp makes the episode live. The parking
	// strategy creates the reusable channel here (once); the instrumented
	// wrapper binds its counters here. It must not allocate on the
	// steady-state path.
	Attach(w *Waiter)
	// Sleep blocks until w has been woken (Woken reports true); it is
	// SleepDone with a nil done.
	Sleep(w *Waiter)
	// SleepDone blocks until w is woken or done is closed, and reports
	// whether the episode was woken (a wake that raced the cancellation
	// counts as woken). It must not return false while a wake is already
	// delivered; a nil done never fires, so SleepDone(w, nil) returns
	// true, once woken.
	SleepDone(w *Waiter, done <-chan struct{}) bool
	// String names the strategy in benchmark output.
	String() string
}

// spin parameters: pause lengths double from minPause to maxPause; after
// spinYieldAfter fruitless rounds the spinner concedes one scheduler yield
// per round so oversubscribed workloads cannot livelock the runtime, while
// the wait stays spin-first.
const (
	minPause       = 4
	maxPause       = 4096
	spinYieldAfter = 1024
)

// spinSink defeats dead-code elimination of the pause loop without writing
// shared memory on the hot path (the store is unreachable).
var spinSink int

// procyield burns roughly n cycles locally, like runtime.procyield / the
// PAUSE instruction: no memory traffic, no scheduler interaction.
func procyield(n int) {
	acc := 0
	for i := 0; i < n; i++ {
		acc += i
	}
	if acc == -1 {
		spinSink = 1
	}
}

type yieldStrategy struct{}

// Yield returns the compatibility-default strategy: probe the Waiter and
// yield to the Go scheduler between probes — the runtime port's historical
// behavior (a bare runtime.Gosched loop).
func Yield() Strategy { return yieldStrategy{} }

func (yieldStrategy) Attach(*Waiter) {}

func (s yieldStrategy) Sleep(w *Waiter) { s.SleepDone(w, nil) }

func (yieldStrategy) SleepDone(w *Waiter, done <-chan struct{}) bool {
	if w.Woken() {
		return true
	}
	if st := w.stats.Load(); st != nil {
		st.Sleeps.Add(1)
	}
	for !w.Woken() {
		select {
		case <-done:
			return w.Woken()
		default:
		}
		runtime.Gosched()
	}
	return true
}

func (yieldStrategy) String() string { return "yield" }

type spinStrategy struct{}

// Spin returns the pure-spin strategy: procyield-style exponential backoff
// with no scheduler interaction until a generous budget is exhausted.
// Lowest wake-to-run latency; do not use when runnable waiters can exceed
// GOMAXPROCS.
func Spin() Strategy { return spinStrategy{} }

func (spinStrategy) Attach(*Waiter) {}

func (s spinStrategy) Sleep(w *Waiter) { s.SleepDone(w, nil) }

func (spinStrategy) SleepDone(w *Waiter, done <-chan struct{}) bool {
	if w.Woken() {
		return true
	}
	st := w.stats.Load()
	if st != nil {
		st.Sleeps.Add(1)
	}
	pause := minPause
	for round := 0; !w.Woken(); round++ {
		select {
		case <-done:
			return w.Woken()
		default:
		}
		procyield(pause)
		if pause < maxPause {
			pause <<= 1
		}
		if round >= spinYieldAfter {
			runtime.Gosched()
		}
		if st != nil {
			st.SpinRounds.Add(1)
		}
	}
	return true
}

func (spinStrategy) String() string { return "spin" }

type spinParkStrategy struct {
	rounds int
}

// SpinThenPark returns the oversubscription-friendly strategy: spin with
// backoff for the given number of rounds, then park on the Waiter's
// reusable channel until the wake arrives. rounds <= 0 selects a small
// default.
func SpinThenPark(rounds int) Strategy {
	if rounds <= 0 {
		rounds = 64
	}
	return spinParkStrategy{rounds: rounds}
}

// Attach creates the slot's park channel on the first episode; every later
// episode reuses it (the channel's happens-before hand-off rides the
// generation stamp, see Waiter.begin).
func (s spinParkStrategy) Attach(w *Waiter) {
	if w.ch == nil {
		w.ch = make(chan struct{}, 1)
	}
}

func (s spinParkStrategy) Sleep(w *Waiter) { s.SleepDone(w, nil) }

func (s spinParkStrategy) SleepDone(w *Waiter, done <-chan struct{}) bool {
	if w.Woken() {
		return true
	}
	st := w.stats.Load()
	if st != nil {
		st.Sleeps.Add(1)
	}
	pause := minPause
	for round := 0; round < s.rounds; round++ {
		if w.Woken() {
			return true
		}
		select {
		case <-done:
			return w.Woken()
		default:
		}
		procyield(pause)
		if pause < maxPause {
			pause <<= 1
		}
		if st != nil {
			st.SpinRounds.Add(1)
		}
	}
	return w.ParkDone(done)
}

func (s spinParkStrategy) String() string { return "spinpark" }

type instrumented struct {
	inner Strategy
	stats *Stats
}

// Instrumented wraps a strategy so every episode it drives records its
// events into stats — the RMR-proxy counters reported by cmd/rmebench.
func Instrumented(inner Strategy, stats *Stats) Strategy {
	return instrumented{inner: inner, stats: stats}
}

func (s instrumented) Attach(w *Waiter) {
	s.inner.Attach(w)
	w.stats.Store(s.stats)
	s.stats.Publishes.Add(1)
}

func (s instrumented) Sleep(w *Waiter) { s.SleepDone(w, nil) }

func (s instrumented) SleepDone(w *Waiter, done <-chan struct{}) bool {
	return s.inner.SleepDone(w, done)
}

func (s instrumented) String() string { return s.inner.String() }
