package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json names the gated workloads with the reason each was
// chosen, and every per-layer metric it lists says which end-to-end
// metric it should move (layerMoves).
func TestBenchmarkFileMatchesTheWorkloads(t *testing.T) {
	b := loadBenchmark(t)
	var gated []string
	for _, s := range specs {
		if s.gated {
			gated = append(gated, s.name)
		}
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
		s := specByName(w.Name)
		if s == nil || !s.gated {
			t.Errorf("BENCHMARK.json lists %q, which is not a gated workload", w.Name)
			continue
		}
		if w.Why != s.why || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("%s: BENCHMARK.json why %q differs from the spec's %q (or is empty or too long)", w.Name, w.Why, s.why)
		}
	}
	if !slices.Equal(gated, listed) {
		t.Errorf("gated workloads %v, BENCHMARK.json lists %v", gated, listed)
	}
	var layers, moves []string
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
	}
	for name := range layerMoves {
		moves = append(moves, name)
	}
	sort.Strings(layers)
	sort.Strings(moves)
	if !slices.Equal(layers, moves) {
		t.Errorf("per_layer metrics %v\ndo not match layerMoves %v", layers, moves)
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// A short run of each mode reports exactly the metrics BENCHMARK.json
// lists for it, in its units, and the referee stays quiet.
func TestRunsReportTheListedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	b := loadBenchmark(t)
	for _, trace := range []bool{false, true} {
		want := map[string]string{}
		if trace {
			for _, m := range b.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range b.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		r := newRun(specByName("uniform"), 1, time.Second, trace)
		if trace {
			r.traced()
		} else {
			r.endToEnd()
		}
		if err := r.ref.err(); err != nil {
			t.Fatal(err)
		}
		if len(r.rep.m) != len(want) {
			t.Errorf("trace=%v: reported %d metrics, BENCHMARK.json lists %d", trace, len(r.rep.m), len(want))
		}
		for name, unit := range want {
			got, ok := r.rep.m[name]
			if !ok || got.Unit != unit {
				t.Errorf("trace=%v: %s reported as %+v (present %v), want unit %s", trace, name, got, ok, unit)
			}
		}
	}
}
