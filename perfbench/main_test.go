package main

import (
	"encoding/json"
	"os"
	"testing"
)

// tiny shrinks a workload to its shortest length: every cell at the
// smallest scale the application suite accepts (64 operations per
// thread).
func tiny(t *testing.T, name string) workloadSpec {
	t.Helper()
	w, ok := lookup(name)
	if !ok {
		t.Fatalf("workload %q is not defined", name)
	}
	w.Cells = append([]cellSpec(nil), w.Cells...)
	for i := range w.Cells {
		w.Cells[i].Scale = 0.001
	}
	return w
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json at a tiny
// length, untraced and traced, and checks that each run passes its
// correctness gate and reports exactly the declared metrics with their
// units.
func TestEveryMetricEmitted(t *testing.T) {
	bf := loadBenchmark(t)
	if len(bf.Workloads) != len(workloads()) {
		t.Errorf("BENCHMARK.json names %d workloads, the code defines %d", len(bf.Workloads), len(workloads()))
	}
	for _, wl := range bf.Workloads {
		w := tiny(t, wl.Name)
		for _, trace := range []bool{false, true} {
			out := run(w, options{seed: 1, trace: trace})
			if !out.res.Correct || out.res.Attempted < 1 || out.res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, out.res.Correct, out.res.Attempted, out.res.Failed)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(out.res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", wl.Name, trace, len(out.res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := out.res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, declared %q", wl.Name, trace, d.Name, got.Unit, d.Unit)
				}
			}
		}
	}
}

// TestCappedRunFails checks that a run cut short by MaxCycles counts as
// failed rather than as fast.
func TestCappedRunFails(t *testing.T) {
	w := tiny(t, "fsoi16-dense")
	w.Cells[0].MaxCycles = 2000
	out := run(w, options{seed: 1})
	if out.res.Correct || out.res.Attempted < 1 || out.res.Failed != out.res.Attempted {
		t.Fatalf("capped run: correct=%v attempted=%d failed=%d, want every repetition failed", out.res.Correct, out.res.Attempted, out.res.Failed)
	}
}

// TestSeedDigest checks that the canonical-listing digest repeats for a
// seed and changes with it.
func TestSeedDigest(t *testing.T) {
	w := tiny(t, "fsoi16-dense")
	a := run(w, options{seed: 1}).digest
	b := run(w, options{seed: 1}).digest
	c := run(w, options{seed: 2}).digest
	if a != b {
		t.Errorf("seed 1 digests differ: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 share digest %s", a)
	}
}

// TestSpansNest checks the traced run's spans: each child lies inside
// its parent, no self time is negative, and every layer replay ran.
func TestSpansNest(t *testing.T) {
	out := run(tiny(t, "fsoi16-dense"), options{seed: 1, trace: true})
	sp := out.spans.spans
	for i, s := range sp {
		if s.end < s.start {
			t.Fatalf("span %d %s ends before it starts", i, s.name)
		}
		if s.parent >= 0 {
			p := sp[s.parent]
			if s.start < p.start || s.end > p.end {
				t.Fatalf("span %d %s [%d,%d] outside parent %s [%d,%d]", i, s.name, s.start, s.end, p.name, p.start, p.end)
			}
		}
	}
	st := out.spans.stats()
	for name, s := range st {
		if s.self < 0 {
			t.Errorf("span %s has negative self time %d", name, s.self)
		}
	}
	for _, name := range []string{"run.observed", "run.windowed", "run.w1", "sim.chunk", "workload.next", "coherence.access", "coherence.handle",
		"coherence.chunk", "core.chunk", "core.send", "mesh.chunk", "mesh.send"} {
		if st[name] == nil {
			t.Errorf("no %s span recorded", name)
		}
	}
}
