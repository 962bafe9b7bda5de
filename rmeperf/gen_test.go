package main

import (
	"slices"
	"testing"
)

func TestScheduleIsDeterministicUnderASeed(t *testing.T) {
	a, b := makeSchedule(42, 1000, true), makeSchedule(42, 1000, true)
	if !slices.Equal(a.at, b.at) || !slices.Equal(a.keys, b.keys) {
		t.Fatal("same seed gave different schedules")
	}
	c := makeSchedule(43, 1000, true)
	if slices.Equal(a.at, c.at) || slices.Equal(a.keys, c.keys) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a.at); i++ {
		if a.at[i] <= a.at[i-1] {
			t.Fatalf("arrival %d not after %d", i, i-1)
		}
	}
	// Unit-rate Poisson arrivals: 1000 arrivals take about 1000 s.
	if end := a.at[len(a.at)-1]; end < 900 || end > 1100 {
		t.Errorf("1000 unit-rate arrivals end at %v s, want about 1000", end)
	}
	if a.dueNs(999, 1000) != int64(a.at[999]/1000*1e9) {
		t.Error("dueNs does not scale the unit-rate plan by the rate")
	}
}

func TestStreamsAreDeterministicAndFollowTheMix(t *testing.T) {
	m := mix{kLock: 60, kCtx: 30, kBatch: 10}
	a, b := makeStream(7, 1, 10000, true, m), makeStream(7, 1, 10000, true, m)
	if !slices.Equal(a, b) {
		t.Fatal("same seed and worker gave different streams")
	}
	if slices.Equal(a, makeStream(7, 2, 10000, true, m)) {
		t.Fatal("two workers share a stream")
	}
	var kinds [4]int
	for _, p := range a {
		kinds[p.kind]++
		for _, k := range p.keys[:p.nkeys()] {
			if k >= keySpace {
				t.Fatalf("key %d outside the key space", k)
			}
		}
	}
	for k, pct := range m {
		if got := kinds[k] * 100 / len(a); got < pct-3 || got > pct+3 {
			t.Errorf("kind %d is %d%% of the stream, want %d%%", k, got, pct)
		}
	}
}

func TestCrashScheduleFollowsTheSeed(t *testing.T) {
	fire := func(seed uint64) []int {
		c := &crashCounts{seed: seed, period: 64, ctr: make([]paddedU64, 2)}
		var at []int
		for i := 0; i < 5000; i++ {
			if c.fn(i%2, "L1") {
				at = append(at, i)
			}
		}
		return at
	}
	a := fire(5)
	if !slices.Equal(a, fire(5)) {
		t.Fatal("same seed gave different crash schedules")
	}
	if slices.Equal(a, fire(6)) {
		t.Fatal("different seeds gave the same crash schedule")
	}
	if len(a) < 40 || len(a) > 120 {
		t.Errorf("%d crashes in 5000 steps at period 64, want about 78", len(a))
	}
}
