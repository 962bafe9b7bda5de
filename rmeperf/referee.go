package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rmelib/rme"
)

// referee checks the library's outputs from outside. Every critical
// section CASes its stripe's occupancy word 0→1 on entry and 1→0 on exit,
// so two holders of one stripe fail a CAS; the async, quiescence and
// recovery checks report through fire. Any violation fails the run.
type referee struct {
	occ    []paddedU32
	settle time.Duration // grace checkQuiet gives background work

	mu      sync.Mutex
	count   int
	reasons []string
}

type paddedU32 struct {
	atomic.Uint32
	_ [60]byte
}

func newReferee(stripes int) *referee {
	return &referee{occ: make([]paddedU32, stripes), settle: 5 * time.Second}
}

func (r *referee) enter(stripe int) {
	if !r.occ[stripe].CompareAndSwap(0, 1) {
		r.fire("two holders in stripe %d", stripe)
	}
}

func (r *referee) leave(stripe int) {
	if !r.occ[stripe].CompareAndSwap(1, 0) {
		r.fire("stripe %d left by a second holder", stripe)
	}
}

func (r *referee) fire(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count++
	if len(r.reasons) < 8 {
		r.reasons = append(r.reasons, fmt.Sprintf(format, args...))
	}
}

func (r *referee) violations() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

func (r *referee) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return nil
	}
	return fmt.Errorf("referee: %d violations: %s", r.count, strings.Join(r.reasons, "; "))
}

// checkQuiet fires unless the table has settled: no orphans and no
// tenancies. Async deliveries and abort fix-ups finish in the background,
// so the table gets a grace period to reach that state.
func (r *referee) checkQuiet(t *rme.LockTable, what string) {
	deadline := time.Now().Add(r.settle)
	for {
		o, u := t.Orphans(), t.InUse()
		if o == 0 && u == 0 {
			return
		}
		if time.Now().After(deadline) {
			r.fire("%s: table did not settle (Orphans()=%d, InUse()=%d)", what, o, u)
			return
		}
		time.Sleep(time.Millisecond)
	}
}
