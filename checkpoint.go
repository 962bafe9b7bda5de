package rme

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// This file is the system-wide crash tier: Checkpoint serializes a
// LockTable's NVRAM-modeled state to bytes, RestoreTable builds a fresh
// table from those bytes in a new incarnation of the process.
//
// The crash model follows the successor line of the source paper
// ("Constant RMR Recoverable Mutex under System-wide Crashes",
// Jayanti–Jayanti–Joshi 2023): every process dies at once and the system
// restarts, so — unlike the independent-death model the rest of the crash
// machinery exercises — no surviving lessee can run its own fix-up, and
// recovery must be driven entirely from the persistent image. What
// persists is exactly the state the RME model places in NVRAM: the arena
// shape (stripes, lock shape, port count), every port's epoch-stamped
// lease word, the key each live tenancy was locking, and whether that
// tenancy held its stripe's critical section.
// Volatile state dies with the process by design: parked waiters, async
// inbox entries, and undelivered grants are all in the dead incarnation's
// memory, so a queued-but-ungranted request is simply lost (its caller
// died too), while a tenancy that had reached a lease — granted or still
// queued on the lock — surfaces as an orphan in the restored table.
//
// Restore advances every port's fencing epoch strictly past the
// checkpointed one, so any lease value that somehow survived the crash
// (a stale PortLease in application state, a fencing token handed to an
// external system) fails its CAS loudly instead of aliasing a new
// tenancy — the lease words' epoch-fencing invariant, extended across
// incarnations. Every non-free tenancy is restored as an orphan
// and healed by the normal two-phase reclaim (claim all, then recover
// concurrently): a tenancy that died holding its critical section is
// re-adopted onto the fresh backend first, so the recovery Lock re-enters
// the CS wait-free and the release wakes whatever queues behind it,
// exactly as for an independent in-CS death. Adoption is
// backend-independent: the restored stripe's lock is fresh and
// uncontended, so a plain Lock(port) during the single-threaded restore
// re-establishes CS ownership on flat, tree, and MCS shapes alike through
// the same portLock surface the rest of the table uses.

// ckptMagic opens every checkpoint. It names the file type only; the
// format generation is ckptVersion, so an image of an older generation
// is rejected by its version word, with a message that says so.
var ckptMagic = []byte("RMECKPT1")

const (
	// ckptVersion is the format generation. Version 1 also carried a
	// per-stripe lock shape and active-port bound; version 2 dropped both
	// (every stripe has the table's shape and full port count).
	ckptVersion = 2

	// ckptHeaderLen is magic + version(4) + seed(8) + shards(4) +
	// ports(4) + table backend(1).
	ckptHeaderLen = 8 + 4 + 8 + 4 + 4 + 1
	// ckptPortLen is per-port lease word(8) + key(8) + flags(1).
	ckptPortLen = 8 + 8 + 1

	// ckptFlagInCS marks a port whose tenancy held its stripe's critical
	// section at checkpoint time (portLock.Held); restore re-adopts the CS
	// before orphaning the lease, so reclaim re-enters it wait-free.
	ckptFlagInCS byte = 1 << 0
)

// ErrCheckpointCorrupt is wrapped by every RestoreTable failure caused by
// the bytes themselves — truncation, trailing garbage, a checksum
// mismatch, or structurally impossible values. Option conflicts (a
// WithShardBackend or WithTableSeed contradicting the image) return
// ordinary errors instead: the bytes are fine, the request is not.
var ErrCheckpointCorrupt = errors.New("rme: corrupt checkpoint")

// Checkpoint serializes the table's persistent state — arena shape and
// lock shape, every port's epoch-stamped lease word, tenancy key, and
// critical-section ownership — into a self-describing, versioned,
// checksummed byte image for RestoreTable. The volatile tiers (parked
// waiters, async inboxes, the executor's run queue and workers,
// undelivered grants) are deliberately absent: they model process memory,
// which a system-wide crash erases.
//
// The image is a crash-consistent snapshot, not a stop-the-world one:
// each port's word is read atomically, but ports are read at slightly
// different times, so an image taken while traffic is still running
// records some interleaving of it. Every such interleaving restores
// soundly (an in-flight tenancy becomes an orphan and is healed), but the
// intended uses are post-mortem — the supervisor of a crashed system
// checkpoints the arena its dead workers left behind — or quiescent
// (periodic snapshots between traffic waves), where the image is exact.
//
// "Quiescent" must be judged by Quiesced(), whose answer covers the
// whole async pipeline: a request is pending from submission until its
// delivery holds a lease, so stripes waiting on the shared executor's
// run queue — and batches a pool worker has swapped but not yet
// delivered — keep the table non-quiescent. A gate that only checked the
// per-stripe inboxes (or the lease words alone) would let a snapshot
// race a scheduled-but-undelivered request: the image would record the
// stripe as free while a grant was still owed, and the post-restore
// table would serve the same key twice. Quiesced()'s pending-then-InUse
// read order is what makes the no-work-in-flight answer exact once
// submitters have stopped — the discipline the snapshot tests lean on.
func (t *LockTable) Checkpoint() ([]byte, error) {
	shards, ports := len(t.shards), t.ports
	buf := make([]byte, 0, ckptHeaderLen+shards*ports*ckptPortLen+4)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint64(buf, t.seed)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shards))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ports))
	buf = append(buf, byte(t.backend))
	for i := range t.shards {
		sh := &t.shards[i]
		for p := 0; p < ports; p++ {
			w := sh.pool.slots[p].word.Load()
			var flags byte
			if w&leaseStateMask != leaseFree && sh.m.Held(p) {
				flags |= ckptFlagInCS
			}
			buf = binary.LittleEndian.AppendUint64(buf, w)
			buf = binary.LittleEndian.AppendUint64(buf, sh.pool.slots[p].key.Load())
			buf = append(buf, flags)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// ckptStripe is one decoded stripe image.
type ckptStripe struct {
	words []uint64
	keys  []uint64
	inCS  int // port index holding the CS, or -1
}

// corrupt builds a RestoreTable decode error; every path through it wraps
// ErrCheckpointCorrupt so callers can classify without string-matching.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCheckpointCorrupt, fmt.Sprintf(format, args...))
}

// RestoreTable builds a fresh LockTable from a Checkpoint image — the new
// incarnation after a system-wide crash. The restored table reproduces the
// checkpointed arena exactly (stripe count, port count, table seed, and
// lock shape), with every fencing epoch strictly advanced and every
// non-free tenancy of the dead incarnation surfaced as an orphan. A
// tenancy that died inside its critical section is re-adopted onto the
// fresh stripe lock, so the stripe stays exclusively held until reclaim
// releases it — no waiter restored or arriving can slip into the CS a dead
// holder still owns.
//
// Run the orphan sweep before serving: either call Reclaim (manually or
// concurrently with the first arrivals — new acquisitions queue behind the
// adopted holders and are granted as recovery releases them), or pass
// WithSupervisor, which a restored table starts with an immediate eager
// sweep instead of waiting out its first interval. Until some sweep runs,
// every stripe that carried an orphan is stalled — that is the system-wide
// model's defining property: no surviving process exists to fix anything
// up, so recovery is the restored incarnation's first job.
//
// Options mean what they mean on NewLockTable, with two restore-specific
// rules: WithTableSeed and WithShardBackend, if given, must agree with the
// image (the seed fixes the key-to-stripe map the checkpointed keys were
// placed under, and the backend is an assertion, not a request to rebuild
// the stripes in another shape — both mismatches error). Corrupted or truncated bytes, and images of an
// older format version, return an error wrapping ErrCheckpointCorrupt,
// never panic.
func RestoreTable(data []byte, opts ...Option) (*LockTable, error) {
	if len(data) < ckptHeaderLen+4 {
		return nil, corrupt("image truncated (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, corrupt("checksum mismatch (computed %#x, recorded %#x)", got, want)
	}
	if string(body[:8]) != string(ckptMagic) {
		return nil, corrupt("bad magic %q", body[:8])
	}
	off := 8
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(body[off:])
		off += 4
		return v
	}
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(body[off:])
		off += 8
		return v
	}
	if v := u32(); v != ckptVersion {
		return nil, corrupt("unsupported version %d (have %d)", v, ckptVersion)
	}
	seed := u64()
	shards := int(u32())
	ports := int(u32())
	tableBackend := ShardBackend(body[off])
	off++
	if shards <= 0 || ports <= 0 {
		return nil, corrupt("impossible arena %d shards × %d ports", shards, ports)
	}
	// The exact-length check both rejects truncated/padded images and
	// bounds the allocations below: a forged shard count cannot make us
	// allocate more than the image's own length justifies.
	want := uint64(ckptHeaderLen) + uint64(shards)*uint64(ports)*ckptPortLen + 4
	if uint64(len(data)) != want {
		return nil, corrupt("length %d does not match declared %d×%d arena (want %d)", len(data), shards, ports, want)
	}
	if !validConcreteBackend(tableBackend) {
		return nil, corrupt("invalid table backend %d", int(tableBackend))
	}

	stripes := make([]ckptStripe, shards)
	orphans := 0
	for i := range stripes {
		st := &stripes[i]
		st.words = make([]uint64, ports)
		st.keys = make([]uint64, ports)
		st.inCS = -1
		for p := 0; p < ports; p++ {
			st.words[p] = u64()
			st.keys[p] = u64()
			flags := body[off]
			off++
			if flags&^ckptFlagInCS != 0 {
				return nil, corrupt("stripe %d port %d: unknown flags %#x", i, p, flags)
			}
			if st.words[p]&leaseStateMask != leaseFree {
				orphans++
			}
			if flags&ckptFlagInCS != 0 {
				if st.words[p]&leaseStateMask == leaseFree {
					return nil, corrupt("stripe %d port %d: critical section on a free lease", i, p)
				}
				if st.inCS >= 0 {
					// Two CS owners on one stripe cannot be a consistent
					// image (mutual exclusion), and adopting both would
					// deadlock the restore; refuse rather than guess.
					return nil, corrupt("stripe %d: critical section on ports %d and %d", i, st.inCS, p)
				}
				st.inCS = p
			}
		}
	}

	cfg := buildConfig(opts)
	if cfg.seedSet && cfg.seed != seed {
		return nil, fmt.Errorf("rme: RestoreTable: WithTableSeed(%#x) contradicts the checkpointed seed %#x (the seed fixes the key-to-stripe map; omit the option to inherit it)", cfg.seed, seed)
	}
	if cfg.backendSet && cfg.backend.resolve(ports) != tableBackend {
		return nil, fmt.Errorf("rme: RestoreTable: WithShardBackend(%v) contradicts the checkpointed backend %v (restore reproduces the image's shapes; omit the option to inherit them)", cfg.backend.resolve(ports), tableBackend)
	}

	t := newTableArena(shards, ports, seed, tableBackend, cfg, opts)
	for i := range stripes {
		st := &stripes[i]
		sh := &t.shards[i]
		if st.inCS >= 0 {
			// Adopt the dead holder's critical section before publishing
			// its lease word: the fresh lock is uncontended and the restore
			// is single-threaded, so Lock re-establishes ownership
			// immediately on any backend, and everything that queues later
			// correctly queues behind the orphan.
			sh.m.LockDone(st.inCS, nil)
			sh.holder.Store(uint64(st.inCS))
		}
		for p := 0; p < ports; p++ {
			epoch := (st.words[p] >> leaseEpochShift) + 1
			state := leaseFree
			if st.words[p]&leaseStateMask != leaseFree {
				state = leaseOrphaned
				sh.pool.slots[p].key.Store(st.keys[p])
			}
			sh.pool.slots[p].word.Store(epoch<<leaseEpochShift | state)
		}
	}
	t.finishInit(cfg, orphans > 0)
	return t, nil
}

// validConcreteBackend reports whether b is a shape a checkpoint may
// record: a concrete backend, never Auto (tables resolve Auto at
// construction, so an image carrying it is corrupt).
func validConcreteBackend(b ShardBackend) bool {
	return b == FlatBackend || b == TreeBackend || b == MCSBackend
}
