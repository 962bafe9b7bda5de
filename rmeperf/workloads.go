package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"github.com/rmelib/rme"
)

// spec is one workload. All tables use the library defaults (Auto
// backend, yield wait, default dispatcher pool) with the node pool on and
// no supervisor; the hash seed is derived from the workload seed so the
// same seed gives the same stripe map.
type spec struct {
	name          string
	shards, ports int
	zipf          bool
	mix           mix
	csIters       int    // critical-section compute
	open          bool   // open-loop async workload
	crashPeriod   uint64 // mean protocol steps between injected crashes; 0 = none
	gated         bool   // listed in BENCHMARK.json
	why           string
}

// The workloads separate the regimes the paper and its successors price
// differently. Keep why in step with BENCHMARK.json (a test checks it).
// async-open is not gated: on a 2-core host its figures swing by more
// than any bound between runs (the dispatcher's spin-then-park workers
// compete with the generator for the cores), so it runs by hand only;
// the traced runs of the gated workloads still measure the dispatcher
// with a short open-loop phase.
var specs = []*spec{
	{
		name: "uniform", shards: 64, ports: 4, mix: mix{kLock: 100}, csIters: 8, gated: true,
		why: "uncontended passage: hash, lease, flat fast path, holderOf scan, stats; moves throughput_ops_s and ref_ratio via table/lease/backend.flat rungs",
	},
	{
		name: "hot", shards: 4, ports: 8, zipf: true, mix: mix{kLock: 60, kCtx: 30, kBatch: 10}, csIters: 330, gated: true,
		why: "zipf keys on 4 stripes: handoff, wait sleeps/wakes, aborts, batches side by side; wait.*, abort.*, batch.* move acquire_p99_us and throughput_ops_s",
	},
	{
		name: "async-open", shards: 64, ports: 8, zipf: true, csIters: 66, open: true,
		why: "open-loop LockAsyncFunc: requests queue inside the dispatcher; dispatch.* moves acquire_p99_us and throughput_ops_s (the max sustainable rate)",
	},
	{
		name: "recover", shards: 32, ports: 48, zipf: true, mix: mix{kDo: 100}, csIters: 8, crashPeriod: 4096, gated: true,
		why: "Do under injected crashes on MCS stripes plus checkpoint/restore rounds; reclaim.* and checkpoint.* move throughput_ops_s and recovery_*_ms",
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

// layerMoves records, for each per-layer metric, the end-to-end metric it
// should move and on which workload (empty: a validity check, not a
// target). BENCHMARK.json's per_layer list must match its keys.
var layerMoves = map[string]string{
	"table.lock_ns.p50":            "throughput_ops_s, ref_ratio on uniform",
	"table.lock_ns.p99":            "acquire_p99_us on uniform",
	"table.unlock_ns.p50":          "throughput_ops_s, ref_ratio on uniform",
	"table.passage_ns":             "throughput_ops_s, ref_ratio on uniform",
	"table.allocs_per_op":          "throughput_ops_s on uniform",
	"table.bytes_per_op":           "throughput_ops_s on uniform",
	"lease.passage_ns":             "throughput_ops_s on uniform",
	"lease.try_miss_ratio":         "throughput_ops_s on uniform",
	"backend.flat.passage_ns":      "throughput_ops_s on uniform",
	"backend.mcs.passage_ns":       "throughput_ops_s on recover",
	"backend.tree.passage_ns":      "",
	"wait.wakes_per_op":            "acquire_p99_us on hot (no change on uniform)",
	"wait.sleeps_per_op":           "acquire_p99_us on hot (no change on uniform)",
	"wait.parks_per_op":            "acquire_p99_us on hot (no change on uniform)",
	"wait.spin_rounds_per_op":      "acquire_p99_us on hot (no change on uniform)",
	"wait.sleep_ns.p50":            "acquire_p50_us on hot",
	"wait.sleep_ns.p99":            "acquire_p99_us on hot",
	"abort.sheds_per_op":           "acquire_p99_us and failed count on hot",
	"abort.lockctx_ns.p50":         "acquire_p99_us on hot",
	"batch.per_key_ns":             "throughput_ops_s on hot",
	"dispatch.submit_ns.p50":       "acquire_p99_us, throughput_ops_s on async-open (no change elsewhere)",
	"dispatch.grant_delay_us.p50":  "acquire_p50_us on async-open",
	"dispatch.grant_delay_us.p99":  "acquire_p99_us on async-open",
	"dispatch.batches_per_op":      "throughput_ops_s on async-open",
	"dispatch.steals_per_op":       "throughput_ops_s on async-open",
	"dispatch.run_queue_depth.max": "acquire_p99_us on async-open",
	"dispatch.goroutines":          "throughput_ops_s on async-open",
	"reclaim.crashes_per_op":       "throughput_ops_s on recover",
	"reclaim.do_ns.p99":            "throughput_ops_s, acquire_p99_us on recover",
	"reclaim.orphans.max":          "recovery_heal_ms on recover",
	"checkpoint.save_ms":           "recovery_ttfg_ms on recover",
	"checkpoint.restore_ms":        "recovery_ttfg_ms on recover",
	"checkpoint.bytes":             "recovery_ttfg_ms on recover",
	"ref.passage_ns":               "",
	"gen.late_p99_us":              "",
	"gen.achieved_rate_ops_s":      "",
	"gen.samples":                  "",
	"trace.overhead_frac":          "",
}

// Open-loop settings. nominalRate is far below every workload's async
// capacity on a 2-core host, so latency there is the passage's own; the
// max-rate search walks a fixed geometric ladder of rates, eight rungs
// per octave, from ladderBase.
const (
	nominalRate  = 20000.0
	latencyLimit = time.Millisecond
	searchStep   = 100 * time.Millisecond
	ladderBase   = 20000.0
	ladderStep   = 1.0905077326652577 // 2^(1/8)
	ladderOctave = 8
	ladderRungs  = 56 // up to 5.1M ops/s
)

func ladderRate(i int) float64 {
	r := ladderBase
	for ; i > 0; i-- {
		r *= ladderStep
	}
	return r
}

// run is one invocation of one workload.
type run struct {
	sp        *spec
	seed      uint64
	budget    time.Duration
	trace     bool
	tableSeed uint64

	ref               *referee
	rep               *report
	attempted, failed uint64
	invalid           string

	sleeps *sharedBuf   // wait wrapper spans, traced runs only
	self   []*reservoir // traced runs: self-time samples per span name
	spans  []span       // the first keptSpans spans, for the trace file
}

func newRun(sp *spec, seed uint64, budget time.Duration, trace bool) *run {
	r := &run{sp: sp, seed: seed, budget: budget, trace: trace,
		tableSeed: subSeed(seed, tagTable), ref: newReferee(sp.shards), rep: newReport()}
	if trace {
		r.sleeps = newSharedBuf(1 << 18)
	}
	return r
}

func (r *run) opts() []rme.Option {
	o := []rme.Option{rme.WithNodePool(true), rme.WithTableSeed(r.tableSeed)}
	if r.trace {
		o = append(o, rme.WithWaitStrategy(timedYield(r.sleeps)))
	}
	return o
}

func (r *run) newTable() *rme.LockTable {
	return rme.NewLockTable(r.sp.shards, r.sp.ports, r.opts()...)
}

// crashCounts is the recover workload's crash schedule: a crash fires at
// a protocol step when the seeded hash of the step's per-port counter is
// 0 mod the period. Per-port counters keep the schedule off a shared
// cache line.
type crashCounts struct {
	seed   uint64
	period uint64
	ctr    []paddedU64
	fired  atomic.Uint64
}

type paddedU64 struct {
	atomic.Uint64
	_ [56]byte
}

func (c *crashCounts) fn(port int, _ string) bool {
	n := c.ctr[port].Add(1)
	if subSeed(c.seed^uint64(port)<<40, n)%c.period != 0 {
		return false
	}
	c.fired.Add(1)
	return true
}

// table builds the workload's table (its construction doubles as the
// untimed warm-up for setupSample) and installs the crash schedule.
func (r *run) table() (*rme.LockTable, *crashCounts) {
	t := r.newTable()
	if r.sp.crashPeriod == 0 {
		return t, nil
	}
	cc := &crashCounts{seed: subSeed(r.seed, tagCrash), period: r.sp.crashPeriod,
		ctr: make([]paddedU64, r.sp.ports)}
	t.SetCrashFunc(cc.fn)
	return t, cc
}

// setupSample times one construction of the workload's table, in seconds.
// It collects garbage first so every sample starts from the same heap.
func (r *run) setupSample() float64 {
	runtime.GC()
	t0 := now()
	t := r.newTable()
	d := float64(now()-t0) / 1e9
	t.Close()
	return d
}

// workers builds n workers over key streams of the workload's seed and
// key distribution with passage mix m.
func (r *run) workers(t *rme.LockTable, n int, m mix) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		stream := makeStream(r.seed, i, 1<<14, r.sp.zipf, m)
		ws[i] = newWorker(stream, r.ref, t.ShardIndex, r.sp.csIters)
		ws[i].port = i
		ws[i].lat = newReservoir(1<<16, subSeed(r.seed, uint64(i)))
	}
	return ws
}

// lockOnly turns ws's streams into single-key Lock passages over the
// same keys, for the ladder.
func lockOnly(ws []*worker) {
	for _, w := range ws {
		for i := range w.stream {
			w.stream[i].kind = kLock
		}
	}
}

func (r *run) count(b block) {
	r.attempted += b.ops + b.failed
	r.failed += b.failed
}

// latency reports a closed loop's sampled acquire latencies.
func (r *run) latency(ws []*worker) {
	var rs []*reservoir
	for _, w := range ws {
		rs = append(rs, w.lat)
	}
	d := newDistInt(merged(rs))
	r.rep.set("acquire_p50_us", d.smooth(0.5)/1e3, "us", d.n())
	r.rep.set("acquire_p99_us", d.smooth(0.99)/1e3, "us", d.n())
	r.tailNote(d, "acquire")
}

// tailNote prints the highest percentile with at least ten samples
// beyond it, per the reporting rule for timings.
func (r *run) tailNote(d dist, what string) {
	if p, v, ok := d.tail(); ok {
		fmt.Fprintf(os.Stderr, "%-10s %s tail: p%g = %.3f us of n=%d\n", r.sp.name, what, p*100, v/1e3, d.n())
	}
}

// pair runs one table block and one reference block from the same
// stream position, alternating by round which goes first, and returns the
// table block and the ratio of table to reference ns/op.
func (r *run) pair(tgt, ref target, ws []*worker, blockDur time.Duration, round int) (block, float64) {
	pos := make([]int, len(ws))
	for i, w := range ws {
		pos[i] = w.pos
	}
	var bt, br block
	for side := 0; side < 2; side++ {
		for i, w := range ws {
			w.pos = pos[i]
		}
		if (side+round)%2 == 0 {
			bt = runBlock(tgt, ws, blockDur, nil)
			r.count(bt)
		} else {
			lat := swapLat(ws, nil)
			br = runBlock(ref, ws, blockDur, nil)
			swapLat(ws, lat)
		}
	}
	return bt, bt.nsPerOp() / br.nsPerOp()
}

// swapLat replaces each worker's latency reservoir, returning the old
// ones. The reference samples into throwaway reservoirs so that both
// sides pay the same sampling cost.
func swapLat(ws []*worker, rs []*reservoir) []*reservoir {
	old := make([]*reservoir, len(ws))
	for i, w := range ws {
		old[i] = w.lat
		if rs != nil {
			w.lat = rs[i]
		} else {
			w.lat = newReservoir(1<<10, 1)
		}
	}
	return old
}

// onOneCore runs f with GOMAXPROCS=1.
func onOneCore(f func()) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// recoveries accumulates system-wide crash rounds over a run.
type recoveries struct {
	held                      []uint64
	probe                     uint64
	ttfg, heal, save, restore []float64
	bytes                     int
}

func (r *run) newRecoveries() *recoveries {
	t := r.newTable()
	defer t.Close()
	held, probe := recoveryKeys(t, r.seed, r.sp.zipf)
	return &recoveries{held: held, probe: probe}
}

// recover runs rounds for about budget, at least one.
func (r *run) recover(rc *recoveries, budget time.Duration, tb *spanBuf) {
	for start := now(); ; {
		rr := r.recoveryRound(rc.held, rc.probe, tb, uint64(len(rc.ttfg)))
		rc.ttfg = append(rc.ttfg, float64(rr.ttfg)/1e6)
		rc.heal = append(rc.heal, float64(rr.heal)/1e6)
		rc.save = append(rc.save, float64(rr.save)/1e6)
		rc.restore = append(rc.restore, float64(rr.restore)/1e6)
		rc.bytes = rr.bytes
		if time.Duration(now()-start) >= budget {
			return
		}
	}
}

func (r *run) reportRecoveries(rc *recoveries) {
	if r.trace {
		r.rep.set("checkpoint.save_ms", median(rc.save), "ms", len(rc.save))
		r.rep.set("checkpoint.restore_ms", median(rc.restore), "ms", len(rc.restore))
		r.rep.set("checkpoint.bytes", float64(rc.bytes), "B", len(rc.save))
		return
	}
	r.rep.set("recovery_ttfg_ms", median(rc.ttfg), "ms", len(rc.ttfg))
	r.rep.set("recovery_heal_ms", median(rc.heal), "ms", len(rc.heal))
}

// liveCtx gives each worker a context with a live, generous deadline,
// so LockContext takes its cancellable path without ever shedding in a
// healthy run. The returned cancel releases them.
func liveCtx(ws []*worker) func() {
	var cancels []context.CancelFunc
	for _, w := range ws {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		w.ctx = ctx
		cancels = append(cancels, cancel)
	}
	return func() {
		for _, c := range cancels {
			c()
		}
	}
}

// Cycle lengths of the closed-loop end-to-end run. Every phase recurs in
// every cycle, so each metric's samples spread over the whole run and
// slow drifts of the host move them all alike.
const (
	pairBlock     = 100 * time.Millisecond
	oneBlock      = 60 * time.Millisecond
	recoverySlice = 25 * time.Millisecond
)

// endToEnd is the untraced run: every end-to-end metric.
func (r *run) endToEnd() {
	t, _ := r.table()
	if r.sp.open {
		r.openEndToEnd(t)
	} else {
		r.closedEndToEnd(t)
	}
	r.ref.checkQuiet(t, "workload table")
	t.Close()
}

// closedEndToEnd runs cycles of: a table and a reference block with
// nproc workers (throughput_ops_s, ref_ratio, acquire latency), then at
// GOMAXPROCS=1 a one-worker block (throughput_1p_ops_s), one table
// construction (setup_s) and system-wide crash rounds (recovery_*).
// Construction and recovery run on one core so that their times are the
// library's work, not the wake-up latency of an idle second core, which
// on a virtual machine swings with the host's load.
func (r *run) closedEndToEnd(t *rme.LockTable) {
	ws := r.workers(t, r.nproc(), r.sp.mix)
	one := r.workers(t, 1, r.sp.mix)
	defer liveCtx(append(one, ws...))()
	ref := newRefTarget(t.Shards(), t.ShardIndex)
	rc := r.newRecoveries()
	var setup, tput, ratios, tput1 []float64
	end := now() + int64(r.budget)
	for cycle := 0; now() < end || cycle < 3; cycle++ {
		bt, ratio := r.pair(tableTarget{t}, ref, ws, pairBlock, cycle)
		tput = append(tput, bt.opsPerS())
		ratios = append(ratios, ratio)
		onOneCore(func() {
			b := runBlock(tableTarget{t}, one, oneBlock, nil)
			r.count(b)
			tput1 = append(tput1, b.opsPerS())
			setup = append(setup, r.setupSample())
			r.recover(rc, recoverySlice, nil)
		})
	}
	r.rep.set("setup_s", median(setup), "s", len(setup))
	r.rep.set("throughput_ops_s", median(tput), "ops/s", len(tput))
	r.rep.set("throughput_1p_ops_s", median(tput1), "ops/s", len(tput1))
	r.rep.set("ref_ratio", median(ratios), "x", len(ratios))
	r.latency(ws)
	r.reportRecoveries(rc)
}

func (r *run) openEndToEnd(t *rme.LockTable) {
	sched := makeSchedule(r.seed, 1<<17, r.sp.zipf)
	o := newOpenLoop(t, r.ref, sched, r.sp.csIters)

	// Latency at the nominal rate: the median over steps of each step's
	// percentiles, so one stalled step cannot move the run's figure.
	var lat []int64
	var p50, p99, achieved []float64
	end := now() + int64(r.budget*25/100)
	for now() < end || len(achieved) < 3 {
		st := o.run(nominalRate, int(nominalRate/5), time.Second)
		r.countStep(st)
		d := newDistInt(st.lat)
		p50 = append(p50, d.q(0.5)/1e3)
		p99 = append(p99, d.q(0.99)/1e3)
		lat = append(lat, st.lat...)
		achieved = append(achieved, st.achieved)
	}
	r.rep.set("acquire_p50_us", median(p50), "us", len(lat))
	r.rep.set("acquire_p99_us", median(p99), "us", len(lat))
	r.tailNote(newDistInt(lat), "acquire (from due time)")
	if a := median(achieved); a < 0.9*nominalRate {
		r.invalid = fmt.Sprintf("generator achieved %.0f ops/s of %.0f nominal", a, nominalRate)
	}

	rate, steps := r.maxRate(o, r.budget*35/100)
	r.rep.set("throughput_ops_s", rate, "ops/s", steps)

	// One worker on one core: closed-loop async passages against the
	// reference.
	ws := r.workers(t, 1, mix{kLock: 100})
	ref := newRefTarget(t.Shards(), t.ShardIndex)
	var setup, tput1, ratios []float64
	onOneCore(func() {
		end := now() + int64(r.budget*20/100)
		for round := 0; now() < end || round < 3; round++ {
			b, ratio := r.pair(asyncTarget{t}, ref, ws, 50*time.Millisecond, round)
			tput1 = append(tput1, b.opsPerS())
			ratios = append(ratios, ratio)
		}
	})
	r.rep.set("throughput_1p_ops_s", median(tput1), "ops/s", len(tput1))
	r.rep.set("ref_ratio", median(ratios), "x", len(ratios))

	rc := r.newRecoveries()
	onOneCore(func() {
		for i := 0; i < 15; i++ {
			setup = append(setup, r.setupSample())
		}
		r.recover(rc, r.budget*15/100, nil)
	})
	r.rep.set("setup_s", median(setup), "s", len(setup))
	r.reportRecoveries(rc)
}

func (r *run) countStep(st step) {
	r.attempted += uint64(st.submitted)
	r.failed += uint64(st.undeliv)
}

// maxRate estimates the highest sustainable rate on the fixed ladder. It
// gallops up in octaves to the first rung that fails, then runs an
// up-down staircase — one rung up after a step that meets the limit, one
// down after one that does not — which settles where half the steps
// meet it, so one stalled step cannot end the search. The estimate is
// the geometric mean rate of the staircase steps. Each step is short: it
// only has to show whether the rate is sustainable.
func (r *run) maxRate(o *openLoop, budget time.Duration) (rate float64, steps int) {
	ok := func(i int) bool {
		rate := ladderRate(i)
		return o.run(rate, int(rate*searchStep.Seconds()), 5*time.Second).meets(latencyLimit)
	}
	i := 0
	for i+ladderOctave < ladderRungs && ok(i+ladderOctave) {
		i += ladderOctave
	}
	var logSum float64
	end := now() + int64(budget)
	for steps < 8 || now() < end {
		logSum += math.Log(ladderRate(i))
		steps++
		switch {
		case ok(i):
			i = min(i+1, ladderRungs-1)
		case i > 0:
			i--
		}
	}
	return math.Exp(logSum / float64(steps)), steps
}

// traced is the traced run: every per-layer metric. Spans are recorded
// around every public call in traced blocks; each call family's spans
// come from the workload's own traffic when it makes that call, and
// otherwise from a short side phase on a table of the same shape and key
// stream.
func (r *run) traced() {
	r.self = make([]*reservoir, numSpanNames)
	for i := range r.self {
		r.self[i] = newReservoir(1<<16, subSeed(r.seed, uint64(1000+i)))
	}
	t, cc := r.table()
	n := r.nproc()
	s0 := t.Stats().Total()
	var orphans int
	seen := map[uint8]bool{}
	if r.sp.open {
		orphans = r.tracedOpen(t, r.budget*30/100)
	} else {
		orphans = r.tracedClosed(t, r.budget*30/100)
		for k, pct := range r.sp.mix {
			seen[uint8(k)] = pct > 0
		}
	}
	r.phaseCounters(t.Stats().Total(), s0, cc, orphans)
	r.ref.checkQuiet(t, "workload table")
	t.SetCrashFunc(nil) // the ladder's rungs are crash-free passages

	lws := r.workers(t, n, r.sp.mix)
	lockOnly(lws)
	for _, w := range lws {
		w.lat = nil
	}
	r.ladder(t, lws, r.budget*30/100)
	r.ref.checkQuiet(t, "workload table")
	t.Close()

	// Side phases for the call families the workload does not make.
	side := r.budget * 5 / 100
	for _, kind := range []uint8{kLock, kCtx, kBatch, kDo} {
		if seen[kind] {
			continue
		}
		st := r.newTable()
		ws := r.workers(st, n, mixOf(kind))
		cancel := liveCtx(ws)
		r.tracedBlocks(tableTarget{st}, ws, side, nil)
		cancel()
		r.ref.checkQuiet(st, "side table")
		st.Close()
	}
	if !r.sp.open {
		st := r.newTable()
		r.tracedOpen(st, side)
		r.ref.checkQuiet(st, "side table")
		st.Close()
	}

	rb := newSpanBuf(1 << 14)
	rc := r.newRecoveries()
	onOneCore(func() { r.recover(rc, r.budget*10/100, rb) })
	r.reportRecoveries(rc)
	r.fold([]*spanBuf{rb})

	r.spanMetrics()
}

func mixOf(kind uint8) mix {
	var m mix
	m[kind] = 100
	return m
}

// tracedBlocks runs rounds of an untraced and a traced block (alternating
// which goes first) for about budget and returns the median ns/op of
// each side. Every traced block records a span around every call; the
// spans of every fourth are folded into the samples and the rest are
// discarded, which bounds the folding work on fast workloads.
func (r *run) tracedBlocks(tgt target, ws []*worker, budget time.Duration, poll func()) (plain, traced float64) {
	const blockDur = 10 * time.Millisecond
	bufs := make([]*spanBuf, len(ws))
	for i := range bufs {
		bufs[i] = newSpanBuf(1 << 17)
	}
	var ps, ts []float64
	end := now() + int64(budget)
	for round := 0; now() < end || round < 4; round++ {
		for side := 0; side < 2; side++ {
			on := (side+round)%2 == 1
			for i, w := range ws {
				w.tb = nil
				if on {
					w.tb = bufs[i]
				}
			}
			b := runBlock(tgt, ws, blockDur, poll)
			r.count(b)
			if !on {
				ps = append(ps, b.nsPerOp())
				continue
			}
			ts = append(ts, b.nsPerOp())
			if round%4 < 2 {
				r.fold(bufs)
				r.foldSleeps()
			}
			for _, b := range bufs {
				b.spans = b.spans[:0]
			}
			r.sleeps.n.Store(0)
		}
	}
	for _, w := range ws {
		w.tb = nil
	}
	return median(ps), median(ts)
}

// fold moves the spans in bufs into the per-name self-time samples and
// empties the buffers, keeping the first spans of the run for the trace
// file.
func (r *run) fold(bufs []*spanBuf) {
	ss := collectSpans(bufs)
	for i, s := range ss.spans {
		r.self[s.name].add(ss.self[i])
	}
	if room := keptSpans - len(r.spans); room > 0 {
		r.spans = append(r.spans, ss.spans[:min(room, len(ss.spans))]...)
	}
	for _, b := range bufs {
		b.spans = b.spans[:0]
	}
}

// foldSleeps moves the wait wrapper's spans into the samples. A sleep
// still being written by a straggling background waiter reads as
// unfinished and is skipped.
func (r *run) foldSleeps() {
	for _, s := range r.sleeps.recorded() {
		if s.end > s.start {
			r.self[spSleep].add(s.end - s.start)
		}
	}
	r.sleeps.n.Store(0)
}

const keptSpans = 1 << 18

func (r *run) tracedClosed(t *rme.LockTable, budget time.Duration) (orphans int) {
	ws := r.workers(t, r.nproc(), r.sp.mix)
	defer liveCtx(ws)()
	poll := func() { orphans = max(orphans, t.Orphans()) }
	plain, traced := r.tracedBlocks(tableTarget{t}, ws, budget, poll)
	r.rep.set("trace.overhead_frac", traced/plain-1, "ratio", 0)
	return orphans
}

// phaseCounters reports the workload phase's counter deltas per
// completed acquisition: wait-engine events, sheds and injected crashes.
func (r *run) phaseCounters(s1, s0 rme.ShardStats, cc *crashCounts, orphans int) {
	ops := float64(max(s1.Acquires-s0.Acquires, 1))
	r.rep.set("wait.wakes_per_op", float64(s1.Wakes-s0.Wakes)/ops, "count", int(ops))
	r.rep.set("wait.sleeps_per_op", float64(s1.Sleeps-s0.Sleeps)/ops, "count", int(ops))
	r.rep.set("wait.parks_per_op", float64(s1.Parks-s0.Parks)/ops, "count", int(ops))
	r.rep.set("wait.spin_rounds_per_op", float64(s1.SpinRounds-s0.SpinRounds)/ops, "count", int(ops))
	sheds := s1.Aborts + s1.Timeouts - s0.Aborts - s0.Timeouts
	r.rep.set("abort.sheds_per_op", float64(sheds)/ops, "count", int(ops))
	fired := 0.0
	if cc != nil {
		fired = float64(cc.fired.Load())
	}
	r.rep.set("reclaim.crashes_per_op", fired/ops, "count", int(ops))
	r.rep.set("reclaim.orphans.max", float64(orphans), "count", 0)
}

// tracedOpen runs open-loop steps at the nominal rate, alternating
// steps whose spans are folded with steps that are not, and reports the
// dispatcher and generator metrics.
func (r *run) tracedOpen(t *rme.LockTable, budget time.Duration) (orphans int) {
	o := newOpenLoop(t, r.ref, makeSchedule(r.seed, 1<<15, r.sp.zipf), r.sp.csIters)
	var depth, workers, orph atomic.Int64
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				d := t.Stats().Dispatcher
				if v := int64(d.RunQueueDepth); v > depth.Load() {
					depth.Store(v)
				}
				if v := int64(d.Workers); v > workers.Load() {
					workers.Store(v)
				}
				if v := int64(t.Orphans()); v > orph.Load() {
					orph.Store(v)
				}
			}
		}
	}()
	d0 := t.Stats().Dispatcher
	var late, grant []int64
	var achieved, pl, tl []float64
	delivered := 0
	gb := newSpanBuf(1 << 16)
	end := now() + int64(budget)
	for i := 0; now() < end || i < 4; i++ {
		st := o.run(nominalRate, int(nominalRate/10), time.Second)
		r.countStep(st)
		delivered += st.submitted - st.undeliv
		p50 := newDistInt(st.lat).q(0.5)
		if i%2 == 0 {
			pl = append(pl, p50)
			continue
		}
		tl = append(tl, p50)
		late = append(late, st.late...)
		grant = append(grant, st.grant...)
		achieved = append(achieved, st.achieved)
		for j := range st.recs {
			rec := &st.recs[j]
			gb.add(span{start: rec.submit0, end: rec.submit1, op: uint64(j), parent: -1, name: spSubmit})
			if cb := rec.cb0.Load(); cb != 0 {
				gb.add(span{start: cb, end: rec.cb1, op: uint64(j), parent: -1, name: spCallback})
			}
		}
		r.fold([]*spanBuf{gb})
		r.foldSleeps()
	}
	close(stop)
	<-polled
	d1 := t.Stats().Dispatcher
	ops := float64(max(delivered, 1))
	if r.sp.open {
		r.rep.set("trace.overhead_frac", median(tl)/median(pl)-1, "ratio", 0)
	}
	gd := newDistInt(grant)
	r.rep.set("dispatch.grant_delay_us.p50", gd.q(0.5)/1e3, "us", gd.n())
	r.rep.set("dispatch.grant_delay_us.p99", gd.q(0.99)/1e3, "us", gd.n())
	r.rep.set("dispatch.batches_per_op", float64(d1.Batches-d0.Batches)/ops, "count", int(ops))
	r.rep.set("dispatch.steals_per_op", float64(d1.Steals-d0.Steals)/ops, "count", int(ops))
	r.rep.set("dispatch.run_queue_depth.max", float64(depth.Load()), "count", 0)
	r.rep.set("dispatch.goroutines", float64(workers.Load()), "count", 0)
	ld := newDistInt(late)
	r.rep.set("gen.late_p99_us", ld.q(0.99)/1e3, "us", ld.n())
	r.rep.set("gen.achieved_rate_ops_s", median(achieved), "ops/s", len(achieved))
	r.rep.set("gen.samples", float64(ld.n()), "count", ld.n())
	if a := median(achieved); a < 0.9*nominalRate {
		r.invalid = fmt.Sprintf("generator achieved %.0f ops/s of %.0f nominal", a, nominalRate)
	}
	return int(orph.Load())
}

// spanMetrics reports the metrics read off the folded span samples.
func (r *run) spanMetrics() {
	q := func(name uint8, p float64) (float64, int) {
		d := newDistInt(r.self[name].buf)
		return d.q(p), d.n()
	}
	set := func(metricName string, name uint8, p, scale float64, unit string) {
		v, n := q(name, p)
		r.rep.set(metricName, v/scale, unit, n)
	}
	set("table.lock_ns.p50", spLock, 0.5, 1, "ns")
	set("table.lock_ns.p99", spLock, 0.99, 1, "ns")
	set("table.unlock_ns.p50", spUnlock, 0.5, 1, "ns")
	set("wait.sleep_ns.p50", spSleep, 0.5, 1, "ns")
	set("wait.sleep_ns.p99", spSleep, 0.99, 1, "ns")
	set("abort.lockctx_ns.p50", spLockCtx, 0.5, 1, "ns")
	set("batch.per_key_ns", spBatch, 0.5, batchKeys, "ns")
	set("dispatch.submit_ns.p50", spSubmit, 0.5, 1, "ns")
	set("reclaim.do_ns.p99", spDo, 0.99, 1, "ns")
}
