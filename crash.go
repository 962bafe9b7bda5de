package rme

import "fmt"

// CrashFunc decides whether the calling goroutine should "crash" (abandon
// the protocol, losing its local state) at a labeled algorithm step. It is
// called with the port and the step label (the paper's line numbers, e.g.
// "L13" for the FAS on Tail). Returning true makes the protocol panic with
// a crash value; see AsCrash.
//
// CrashFunc implementations must be safe for concurrent use.
type CrashFunc func(port int, point string) bool

// Crash is the panic value raised by an injected crash.
type Crash struct {
	// Port is the port whose operation was abandoned.
	Port int
	// Point is the step label at which the crash fired.
	Point string
}

// Error renders the crash like an error for convenient logging.
func (c Crash) Error() string {
	return fmt.Sprintf("rme: injected crash at %s (port %d)", c.Point, c.Port)
}

// AsCrash reports whether a recovered panic value is an injected crash.
// Typical recovery harness:
//
//	defer func() {
//		if c, ok := rme.AsCrash(recover()); ok {
//			go restartWorker(c.Port) // re-run Lock(port) to recover
//			return
//		}
//	}()
func AsCrash(r any) (Crash, bool) {
	c, ok := r.(Crash)
	return c, ok
}

// cp is the crash point check run at every labelled protocol step. With
// no hook installed it costs one load and one branch, small enough for the
// compiler to inline it into the step; the hook call lives in crashAt.
func (m *Mutex) cp(port int, point string) {
	if fn := m.crashFn.Load(); fn != nil {
		crashAt(fn, port, point)
	}
}

// crashAt is the outlined slow path of every backend's crash point: it
// asks the installed hook and panics with a Crash when the hook fires.
// Kept out of line so that the callers stay within the inlining budget.
//
//go:noinline
func crashAt(fn *CrashFunc, port int, point string) {
	if (*fn)(port, point) {
		panic(Crash{Port: port, Point: point})
	}
}

// CrashPoint lets applications add their own labeled crash-injection
// points, wired to the same hook as the protocol's built-in points: if the
// installed CrashFunc returns true for (port, point), CrashPoint panics
// with a Crash value. With no hook installed it is a no-op. Use it to test
// application-level recovery logic (journals, redo records) under the same
// fault model as the lock itself.
func (m *Mutex) CrashPoint(port int, point string) {
	m.cp(port, point)
}

// SetCrashFunc installs (or, with nil, removes) the crash-injection hook.
// Intended for tests and fault-injection harnesses.
func (m *Mutex) SetCrashFunc(fn CrashFunc) {
	if fn == nil {
		m.crashFn.Store(nil)
		return
	}
	m.crashFn.Store(&fn)
}
