package rme

import "github.com/rmelib/rme/internal/wait"

// signal is the runtime port of the paper's Signal object (Figure 2): a
// single-shot flag with set and wait, where the waiter spins on a word it
// allocated itself. On the paper's DSM machine that placement makes the
// busy-wait local; at runtime it additionally keeps each waiter on its own
// cache line most of the time.
//
// All waiting is delegated to the internal/wait engine. The signal is one
// publication Cell (Figure 2's GoAddr), which owns the reusable
// generation-stamped spin word every wait on this signal runs on, and the
// persistent Bit is a latch bit in that same word. So set is one CAS that
// latches the bit and wakes the open episode, if any — Figure 2's one
// write plus one wake, fused — and a set with nobody waiting delivers and
// counts no wake. How the waiter passes the time is the mutex's
// wait.Strategy.
//
// The algorithm guarantees no two wait executions are ever concurrent on
// the same signal (a node's CS_Signal is awaited only by its unique
// successor; NonNil_Signal only under the repair lock).
type signal struct {
	cell wait.Cell
}

// set makes the signal's state 1 and wakes the published waiter, if any
// (Figure 2 lines 1–4).
func (s *signal) set() { s.cell.Latch() }

// waitDone returns once the signal's state is 1 (Figure 2 lines 5–9), or
// once done closes first, and reports whether the signal was set by the
// time it returned; a nil done never fires, so waitDone(st, nil) returns
// true, once set. Each blocking call opens a fresh generation-stamped
// episode on the cell's reusable waiter — the zero-allocation equivalent
// of the paper's fresh-spin-word-per-wait (line 5), and what makes
// re-execution after a crash safe: a stale wake directed at an abandoned
// episode carries the old generation and is simply lost (see
// internal/wait's package comment for the equivalence argument). An
// already-set signal returns before opening an episode, so neither path
// allocates.
//
// Signal wakes are hints over the persistent bit, so a wake lost to a
// cancelled (and retired) episode is harmless — the bit stays set, and any
// later wait on the signal returns immediately off the fast path.
func (s *signal) waitDone(st wait.Strategy, done <-chan struct{}) bool {
	if s.cell.Latched() {
		return true
	}
	return s.cell.AwaitDone(st, s.cell.Latched, done)
}

// isSet reports the state without side effects.
func (s *signal) isSet() bool { return s.cell.Latched() }

// forceSet initializes a pre-set signal (the SpecialNode's).
func (s *signal) forceSet() { s.cell.Latch() }

// reset returns the signal to a fresh state for a recycled qnode life with
// one store: the bit is cleared, no episode is open, and the cell's
// generation is bumped, so in-flight wakes aimed at the previous life die
// on their CAS. Only called while the enclosing node is unreachable from
// the protocol.
func (s *signal) reset() { s.cell.Reset() }
