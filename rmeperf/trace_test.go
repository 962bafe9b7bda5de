package main

import (
	"slices"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 30, parent: 0},    // 1: child of 0
		{start: 20, end: 50, parent: 0},    // 2: overlaps 1: union 10..50
		{start: 90, end: 120, parent: 0},   // 3: runs past its parent: 90..100 counts
		{start: 12, end: 18, parent: 1},    // 4: grandchild, only 1's business
		{start: 200, end: 260, parent: -1}, // 5: root without children
		{start: 40, end: 45, parent: 2},    // 6: child of 2
	}
	want := []int64{
		100 - 40 - 10, // 50
		20 - 6,        // 14
		30 - 5,        // 25
		30,
		6,
		60,
		5,
	}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestCollectSpansRebasesParents(t *testing.T) {
	a, b := newSpanBuf(4), newSpanBuf(4)
	a.add(span{start: 0, end: 10, parent: -1, name: spPassage})
	a.add(span{start: 2, end: 4, parent: 0, name: spLock})
	b.add(span{start: 0, end: 20, parent: -1, name: spPassage})
	b.add(span{start: 5, end: 15, parent: 0, name: spCS})
	ss := collectSpans([]*spanBuf{a, b})
	if len(ss.spans) != 4 || ss.spans[3].parent != 2 {
		t.Fatalf("b's child should point at span 2 after rebasing: %+v", ss.spans)
	}
	if want := []int64{8, 2, 10, 10}; !slices.Equal(ss.self, want) {
		t.Errorf("self times = %v, want %v", ss.self, want)
	}
}

func TestSpanBufDropsWhenFull(t *testing.T) {
	b := newSpanBuf(1)
	if i := b.begin(spLock, 1, -1); i != 0 {
		t.Fatalf("first span index %d", i)
	}
	if i := b.begin(spLock, 1, -1); i != -1 || len(b.spans) != 1 {
		t.Fatalf("full buffer returned %d and holds %d spans", i, len(b.spans))
	}
	var off *spanBuf
	if i := off.begin(spLock, 1, -1); i != -1 {
		t.Fatalf("nil buffer (tracing off) returned %d", i)
	}
	off.end(-1)
}
