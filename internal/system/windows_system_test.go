package system

import (
	"bytes"
	"strings"
	"testing"

	"fsoi/internal/obs"
	"fsoi/internal/sim"
	"fsoi/internal/workload"
)

// windowedRun executes one fault- and trace-enabled FSOI run on the
// windowed parallel engine and returns both byte-identity surfaces: the
// canonical metric serialization and the lifecycle-trace JSONL bytes.
func windowedRun(t *testing.T, name string, nodes, shards, workers int, scale float64, maxCycles sim.Cycle) (canon, trace string, m Metrics) {
	t.Helper()
	app, ok := workload.ByName(name, scale)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	cfg := Default(nodes, NetFSOI)
	cfg.MaxCycles = maxCycles
	cfg.Shards = shards
	cfg.ParWorkers = workers
	cfg.Observe = true
	cfg.TracePackets = 16
	faultyConfig(&cfg)
	s := New(cfg)
	w := s.WindowEngine()
	if w == nil {
		t.Fatal("windowed config did not select the windowed engine")
	}
	if w.Shards() != shards || w.Workers() != workers {
		t.Fatalf("engine built with %d shards / %d workers, want %d / %d",
			w.Shards(), w.Workers(), shards, workers)
	}
	m = s.Run(app)
	if !m.Finished {
		t.Fatalf("%s (%d nodes, %d shards, %d workers) did not finish:\n%s",
			name, nodes, shards, workers, s.Diagnose())
	}
	if w.WindowCount() == 0 {
		t.Fatal("windowed run executed zero windows")
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, m.Obs); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	return m.Canonical(), buf.String(), m
}

// diffLines reports the first line where two multiline strings diverge.
func diffLines(t *testing.T, label, a, b string) {
	t.Helper()
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := min(len(al), len(bl))
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			t.Fatalf("%s diverges at line %d:\n  want: %s\n  got:  %s", label, i+1, al[i], bl[i])
		}
	}
	t.Fatalf("%s diverges in length: %d vs %d lines", label, len(al), len(bl))
}

// TestWindowedWorkerInvariance16 is the tentpole's determinism claim at
// the full-system level: a fault- and trace-enabled 16-node run on the
// windowed engine is byte-identical — canonical metrics AND lifecycle
// JSONL — at 1, 2, 4, and 8 workers. Workers=1 runs the identical
// schedule on a serial pool (no goroutines), so any divergence is a
// worker-count leak, not a model change.
func TestWindowedWorkerInvariance16(t *testing.T) {
	wantCanon, wantTrace, _ := windowedRun(t, "mp3d", 16, 4, 1, 0.01, 3_000_000)
	for _, workers := range []int{2, 4, 8} {
		canon, trace, _ := windowedRun(t, "mp3d", 16, 4, workers, 0.01, 3_000_000)
		if canon != wantCanon {
			diffLines(t, "windowed canonical metrics", wantCanon, canon)
		}
		if trace != wantTrace {
			diffLines(t, "windowed trace JSONL", wantTrace, trace)
		}
	}
}

// TestWindowedShardInvariance16 is the partition-invariance claim: the
// same 16-node run is byte-identical at 2, 4, and 8 shards. The event
// key is (at, schedulingNode, perNodeSeq) — never a shard index — so
// repartitioning the nodes must not move a single event.
func TestWindowedShardInvariance16(t *testing.T) {
	wantCanon, wantTrace, _ := windowedRun(t, "mp3d", 16, 2, 2, 0.01, 3_000_000)
	for _, shards := range []int{4, 8} {
		canon, trace, _ := windowedRun(t, "mp3d", 16, shards, 2, 0.01, 3_000_000)
		if canon != wantCanon {
			diffLines(t, "windowed canonical metrics", wantCanon, canon)
		}
		if trace != wantTrace {
			diffLines(t, "windowed trace JSONL", wantTrace, trace)
		}
	}
}

// TestWindowedWorkerInvariance64 repeats the worker sweep at 64 nodes
// with faults and tracing on; skipped under -short to keep the quick
// loop quick (CI runs it in full — it is the par-equivalence job's
// in-repo twin).
func TestWindowedWorkerInvariance64(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node windowed invariance runs only without -short")
	}
	wantCanon, wantTrace, _ := windowedRun(t, "fft", 64, 8, 1, 0.01, 3_000_000)
	for _, workers := range []int{2, 4, 8} {
		canon, trace, _ := windowedRun(t, "fft", 64, 8, workers, 0.01, 3_000_000)
		if canon != wantCanon {
			diffLines(t, "64-node windowed canonical metrics", wantCanon, canon)
		}
		if trace != wantTrace {
			diffLines(t, "64-node windowed trace JSONL", wantTrace, trace)
		}
	}
}

// TestWindowedShardInvariance64 repeats the shard sweep at 64 nodes:
// byte identity across 2, 4, and 8 shards at a fixed worker count.
func TestWindowedShardInvariance64(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node windowed invariance runs only without -short")
	}
	wantCanon, wantTrace, _ := windowedRun(t, "fft", 64, 2, 4, 0.01, 3_000_000)
	for _, shards := range []int{4, 8} {
		canon, trace, _ := windowedRun(t, "fft", 64, shards, 4, 0.01, 3_000_000)
		if canon != wantCanon {
			diffLines(t, "64-node windowed canonical metrics", wantCanon, canon)
		}
		if trace != wantTrace {
			diffLines(t, "64-node windowed trace JSONL", wantTrace, trace)
		}
	}
}

// TestWindowedMetersExposed: the window/handoff meters the fsoisim
// -par flag prints must be live — a real run crosses shards, and every
// one of those crossings cleared its window.
func TestWindowedMetersExposed(t *testing.T) {
	app, _ := workload.ByName("jacobi", 0.01)
	cfg := Default(16, NetFSOI)
	cfg.MaxCycles = 3_000_000
	cfg.ParWorkers = 4
	s := New(cfg)
	if !s.Run(app).Finished {
		t.Fatal("windowed jacobi run did not finish")
	}
	w := s.WindowEngine()
	if w.Handoffs() == 0 {
		t.Fatal("a 16-node run must hand events across shards")
	}
	if w.TightHandoffs() > w.Handoffs() {
		t.Fatal("tight handoffs cannot exceed total handoffs")
	}
	if got := s.Lookahead(); got != w.Lookahead() {
		t.Fatalf("system lookahead %d disagrees with the engine's %d", got, w.Lookahead())
	}
}

// TestWindowedRequiresSubscriptionSync pins the construction gate: the
// coherent ll/sc fabric shares lock tables across nodes, so a windowed
// run must refuse it loudly instead of racing quietly.
func TestWindowedRequiresSubscriptionSync(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ParWorkers with ForceCoherentSync must panic")
		}
	}()
	cfg := Default(16, NetFSOI)
	cfg.ParWorkers = 2
	cfg.ForceCoherentSync = true
	New(cfg)
}

// TestWindowedRequiresFSOI pins the other gate: only the FSOI model has
// been restructured into node-owned state.
func TestWindowedRequiresFSOI(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ParWorkers on the mesh must panic")
		}
	}()
	cfg := Default(16, NetMesh)
	cfg.ParWorkers = 2
	New(cfg)
}
