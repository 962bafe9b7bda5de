package rme

import (
	"sync/atomic"

	"github.com/rmelib/rme/internal/wait"
)

// signal is the runtime port of the paper's Signal object (Figure 2): a
// single-shot flag with set and wait, where the waiter spins on a word it
// allocated itself. On the paper's DSM machine that placement makes the
// busy-wait local; at runtime it additionally keeps each waiter on its own
// cache line most of the time.
//
// All waiting is delegated to the internal/wait engine: the signal holds
// the persistent bit and the publication Cell (Figure 2's GoAddr), which
// owns the reusable generation-stamped spin word every wait on this signal
// runs on; how the waiter passes the time is the mutex's wait.Strategy.
//
// The algorithm guarantees no two wait executions are ever concurrent on
// the same signal (a node's CS_Signal is awaited only by its unique
// successor; NonNil_Signal only under the repair lock).
type signal struct {
	// bit is the persistent state: 1 once set() has happened (Figure 2's
	// Bit).
	bit atomic.Bool
	// cell is the publication slot of the current waiter's spin word
	// (Figure 2's GoAddr).
	cell wait.Cell
}

// set makes the signal's state 1 and wakes the published waiter, if any
// (Figure 2 lines 1–4).
func (s *signal) set() {
	s.bit.Store(true)
	s.cell.Wake()
}

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
	if s.bit.Load() {
		return true
	}
	return s.cell.AwaitDone(st, s.bit.Load, done)
}

// isSet reports the state without side effects (used by tests).
func (s *signal) isSet() bool { return s.bit.Load() }

// forceSet initializes a pre-set signal (the SpecialNode's).
func (s *signal) forceSet() { s.bit.Store(true) }

// reset returns the signal to a fresh state for a recycled qnode life:
// the bit is cleared and the cell's generation bumped, so in-flight wakes
// aimed at the previous life die on their CAS. Only called while the
// enclosing node is unreachable from the protocol.
func (s *signal) reset() {
	s.bit.Store(false)
	s.cell.Reset()
}
