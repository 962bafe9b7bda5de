package main

import (
	"math"
	"math/rand/v2"
)

// Everything a run feeds the library is derived here from the workload
// seed: closed-loop key streams, the open-loop arrival schedule, the
// recover workload's crash schedule and the tables' hash seed. The
// library only ever receives the generated keys.

const keySpace = 1 << 20

// Passage kinds. One op is one key acquired and released, so a batch
// passage counts batchKeys ops.
const (
	kLock  uint8 = iota // Lock / Unlock
	kCtx                // LockContext under a live deadline / Unlock
	kBatch              // DoBatch of batchKeys keys
	kDo                 // Do
)

const batchKeys = 4

type passage struct {
	kind uint8
	keys [batchKeys]uint64
}

func (p *passage) nkeys() int {
	if p.kind == kBatch {
		return batchKeys
	}
	return 1
}

// subSeed derives an independent seed for one purpose from the workload
// seed (splitmix64 finalizer of the pair).
func subSeed(seed uint64, tag uint64) uint64 {
	x := seed ^ (tag+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seed tags, one per derived stream.
const (
	tagTable uint64 = iota + 1
	tagSchedule
	tagCrash
	tagHold
	tagWorker = 1 << 32 // + worker index
)

// keySource draws keys uniformly or zipf(s=1.2) over keySpace.
type keySource struct {
	r    *rand.Rand
	zipf *rand.Zipf
}

func newKeySource(seed uint64, zipf bool) *keySource {
	r := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	ks := &keySource{r: r}
	if zipf {
		ks.zipf = rand.NewZipf(r, 1.2, 1, keySpace-1)
	}
	return ks
}

func (ks *keySource) next() uint64 {
	if ks.zipf != nil {
		return ks.zipf.Uint64()
	}
	return ks.r.Uint64N(keySpace)
}

// mix gives the percentage of passages of each kind, indexed by kind.
type mix [4]int

// makeStream builds one worker's cyclic passage stream.
func makeStream(seed uint64, worker, n int, zipf bool, m mix) []passage {
	ks := newKeySource(subSeed(seed, tagWorker+uint64(worker)), zipf)
	out := make([]passage, n)
	for i := range out {
		p := &out[i]
		roll := ks.r.IntN(100)
		for k, pct := range m {
			if roll < pct {
				p.kind = uint8(k)
				break
			}
			roll -= pct
		}
		for j := 0; j < p.nkeys(); j++ {
			p.keys[j] = ks.next()
		}
	}
	return out
}

// schedule is an open-loop arrival plan: Poisson arrivals at unit rate
// (offsets in seconds at 1 op/s) and the key of each arrival. Scaling the
// offsets by 1/rate gives the plan at any rate, so every rate of a ladder
// replays the same key sequence.
type schedule struct {
	at   []float64
	keys []uint64
}

func makeSchedule(seed uint64, n int, zipf bool) schedule {
	ks := newKeySource(subSeed(seed, tagSchedule), zipf)
	s := schedule{at: make([]float64, n), keys: make([]uint64, n)}
	t := 0.0
	for i := range s.at {
		t += -math.Log(1 - ks.r.Float64())
		s.at[i] = t
		s.keys[i] = ks.next()
	}
	return s
}

// dueNs is arrival i's due time in nanoseconds after the plan's start, at
// rate ops/s.
func (s schedule) dueNs(i int, rate float64) int64 {
	return int64(s.at[i] / rate * 1e9)
}
