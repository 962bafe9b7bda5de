package main

import "testing"

func seq(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(n - i) // unsorted on purpose
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	d := newDistInt(seq(100)) // 1..100
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100},
	} {
		if got := d.q(c.p); got != c.want {
			t.Errorf("q(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (dist{}).q(0.5); got != 0 {
		t.Errorf("empty q = %v, want 0", got)
	}
	if d.n() != 100 {
		t.Errorf("n = %d, want 100", d.n())
	}
}

// The tail rule: report the highest percentile that still has at least
// ten samples beyond it.
func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		wantP  float64
		wantOK bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
	} {
		p, v, ok := newDistInt(seq(c.n)).tail()
		if ok != c.wantOK || p != c.wantP {
			t.Errorf("n=%d: tail p=%v ok=%v, want p=%v ok=%v", c.n, p, ok, c.wantP, c.wantOK)
			continue
		}
		if ok && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, p*100, beyond(c.n, p))
		}
		if ok && v != newDistInt(seq(c.n)).q(p) {
			t.Errorf("n=%d: tail value %v is not q(%v)", c.n, v, p)
		}
	}
}

func TestSmoothQuantileAveragesAWindow(t *testing.T) {
	d := newDistInt(seq(10000)) // 1..10000
	// ±5 ranks around rank 5000: mean of 4995..5005.
	if got := d.smooth(0.5); got != 5000 {
		t.Errorf("smooth(0.5) = %v, want 5000", got)
	}
	if got := newDistInt(seq(10)).smooth(0.5); got != 5 {
		t.Errorf("small sample smooth(0.5) = %v, want the quantile itself (5)", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestReservoirKeepsCapAndCountsAll(t *testing.T) {
	r := newReservoir(100, 7)
	for i := 0; i < 10000; i++ {
		r.add(int64(i))
	}
	if len(r.buf) != 100 || r.seen != 10000 {
		t.Fatalf("kept %d of %d, want 100 of 10000", len(r.buf), r.seen)
	}
	late := 0
	for _, v := range r.buf {
		if v >= 5000 {
			late++
		}
	}
	// A uniform sample keeps about half its values from the second half.
	if late < 30 || late > 70 {
		t.Errorf("%d of 100 kept values come from the second half, want about 50", late)
	}
}
