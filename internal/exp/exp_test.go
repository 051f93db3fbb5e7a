package exp

import (
	"fmt"
	"strings"
	"testing"
)

// tiny returns the cheapest possible options for registry smoke tests.
func tiny() Options {
	return Options{Scale: 0.02, Seed: 1, Trials: 300, Apps: []string{"jacobi"}}
}

func TestRegistryLookup(t *testing.T) {
	for _, e := range Registry {
		r, ok := Lookup(e.ID)
		if !ok || r == nil {
			t.Fatalf("Lookup(%s) failed", e.ID)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("unknown ids must not resolve")
	}
	if len(IDs()) != len(Registry) {
		t.Fatal("IDs() must cover the registry")
	}
}

func TestTable1Values(t *testing.T) {
	res := Table1(tiny())
	if res.Values["path_loss_db"] < 2 || res.Values["path_loss_db"] > 3.5 {
		t.Fatalf("path loss %.2f dB", res.Values["path_loss_db"])
	}
	if res.Values["bits_per_cyc"] != 12 {
		t.Fatal("12 line bits per core cycle expected")
	}
	if !strings.Contains(res.Text, "path loss") {
		t.Fatal("text missing")
	}
}

func TestFig3Monotonic(t *testing.T) {
	res := Fig3(tiny())
	// More receivers, fewer collisions at fixed p.
	if res.Values["p0.20_r1"] <= res.Values["p0.20_r2"] {
		t.Fatal("R=1 must collide more than R=2")
	}
	if res.Values["p0.01_r2"] >= res.Values["p0.33_r2"] {
		t.Fatal("collision probability must grow with p")
	}
}

func TestFig4FindsGentleBackoff(t *testing.T) {
	o := tiny()
	o.Trials = 3000
	res := Fig4(o)
	if res.Values["opt_b_g1"] > 1.5 {
		t.Fatalf("optimal B %.2f; small bases should win", res.Values["opt_b_g1"])
	}
	if res.Values["opt_delay_g1"] <= 0 {
		t.Fatal("optimum delay must be positive")
	}
}

func TestFig5Shape(t *testing.T) {
	o := tiny()
	o.Scale = 0.05
	res := Fig5(o)
	if res.Values["mode_frac"] <= 0.04 {
		t.Fatalf("reply latency should concentrate (mode frac %.2f)", res.Values["mode_frac"])
	}
	if res.Values["mean"] <= 0 {
		t.Fatal("mean must be positive")
	}
}

func TestFig6Ordering(t *testing.T) {
	res := Fig6(tiny())
	fsoi := res.Values["geomean_fsoi"]
	l0 := res.Values["geomean_L0"]
	lr2 := res.Values["geomean_Lr2"]
	if fsoi <= 0.9 {
		t.Fatalf("FSOI geomean %.3f; must not lose badly to mesh", fsoi)
	}
	if l0 < lr2*0.93 {
		t.Fatalf("L0 (%.3f) must not lose badly to Lr2 (%.3f)", l0, lr2)
	}
}

func TestFig9ReducesCollisions(t *testing.T) {
	o := tiny()
	o.Scale = 0.05
	res := Fig9(o)
	if res.Values["collision_cut"] < -0.2 {
		t.Fatalf("ack elision should not increase collisions markedly: %.2f", res.Values["collision_cut"])
	}
	if res.Values["traffic_cut"] <= 0 {
		t.Fatal("ack elision must remove some meta packets")
	}
}

func TestLLSCNotHarmful(t *testing.T) {
	res := LLSC(tiny())
	if res.Values["speedup"] < 0.9 {
		t.Fatalf("confirmation-channel sync should not slow things: %.3f", res.Values["speedup"])
	}
}

func TestBenchOptionsAreCheap(t *testing.T) {
	o := BenchOptions()
	if o.Scale > 0.1 || len(o.Apps) == 0 {
		t.Fatal("bench options must stay small")
	}
}

func TestFaultsSweepDegradesMonotonically(t *testing.T) {
	res := Faults(tiny())
	// Tiny scale uses the {0, 2, 3.5} dB points; eroding margin must
	// not improve performance and must raise the retransmission cost.
	if res.Values["speedup_p0.0"] < res.Values["speedup_p3.5"] {
		t.Fatalf("speedup rose with lost margin: %.3f -> %.3f",
			res.Values["speedup_p0.0"], res.Values["speedup_p3.5"])
	}
	if res.Values["retrans_p3.5"] <= res.Values["retrans_p0.0"] {
		t.Fatalf("retransmissions must grow with corruption: %.3f -> %.3f",
			res.Values["retrans_p0.0"], res.Values["retrans_p3.5"])
	}
	if res.Values["bit_errors_p3.5"] == 0 {
		t.Fatal("3.5 dB must corrupt packets")
	}
	for _, key := range []string{"finished_p0.0", "finished_p2.0", "finished_p3.5"} {
		if res.Values[key] != 1 {
			t.Fatalf("%s: swept point did not finish (deadlock under faults)", key)
		}
	}
}

// TestFig8WorkerEquivalence is the runner-level half of the
// parallel-vs-serial contract: one full Fig8 (mesh + FSOI energy grid)
// at Workers=1 and Workers=8 must render byte-identical Result.Text and
// identical Values, because jobs merge by submission index and the
// formatting loop replays the serial iteration order.
func TestFig8WorkerEquivalence(t *testing.T) {
	run := func(workers int) Result {
		o := BenchOptions()
		o.Workers = workers
		return Fig8(o)
	}
	serial := run(1)
	parallel := run(8)
	if serial.Text != parallel.Text {
		t.Fatalf("Fig8 text diverges between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.Text, parallel.Text)
	}
	if len(serial.Values) != len(parallel.Values) {
		t.Fatalf("value count diverges: %d vs %d", len(serial.Values), len(parallel.Values))
	}
	for k, v := range serial.Values {
		if pv, ok := parallel.Values[k]; !ok || pv != v {
			t.Fatalf("value %q diverges: %v vs %v", k, v, parallel.Values[k])
		}
	}
}

// TestFrontierShape checks the frontier sweep's physical narrative: the
// analytic grid covers every registered topology at 16/64/256 nodes,
// waveguide-crossbar loss grows with radix while FSOI's stays flat, and
// the simulated half produces the FSOI-vs-token-crossbar ratio.
func TestFrontierShape(t *testing.T) {
	res := Frontier(tiny())
	for _, topo := range []string{"corona", "fsoi", "matrix", "snake"} {
		for _, nodes := range []int{16, 64, 256} {
			if res.Values[key2("loss", topo, nodes)] <= 0 {
				t.Fatalf("missing analytic loss for %s@%d", topo, nodes)
			}
		}
		if res.Values[key2("cycles", topo, 16)] <= 0 {
			t.Fatalf("missing simulated cycles for %s@16", topo)
		}
	}
	for _, topo := range []string{"corona", "matrix", "snake"} {
		if res.Values[key2("loss", topo, 256)] <= res.Values[key2("loss", topo, 16)] {
			t.Fatalf("%s loss must grow with radix", topo)
		}
		// The headline: every waveguide crossbar loses to free space at 256.
		if res.Values[key2("loss", topo, 256)] <= res.Values[key2("loss", "fsoi", 256)] {
			t.Fatalf("%s@256 should pay more worst-case loss than fsoi", topo)
		}
	}
	ratio := res.Values["fsoi_vs_corona_16"]
	if ratio < 0.8 || ratio > 1.6 {
		t.Fatalf("fsoi-vs-corona ratio %.3f implausible", ratio)
	}
}

func key2(prefix, topo string, nodes int) string {
	return fmt.Sprintf("%s_%s_%d", prefix, topo, nodes)
}

// TestFrontierScaleHalf checks the scale half of the sweep: at scale
// 0.05 and up, the frontier simulates the two §7.1 contenders at 256
// nodes and reports their cycle counts. Skipped under -short (the
// -race job) for time.
func TestFrontierScaleHalf(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node frontier half runs only without -short")
	}
	o := tiny()
	o.Scale = 0.05
	res := Frontier(o)
	for _, topo := range []string{"fsoi", "corona"} {
		if res.Values[key2("cycles", topo, 256)] <= 0 {
			t.Fatalf("missing 256-node cycles for %s", topo)
		}
	}
	if !strings.Contains(res.Text, "Scale frontier at 256+ nodes") {
		t.Fatal("scale-half table missing from frontier text")
	}
}

// TestFrontierWorkerEquivalence extends the parallel-vs-serial contract
// to the topology-zoo grid: the frontier runs every registered topology
// through the NetOptical path, and its rendered table must be
// byte-identical at any worker count.
func TestFrontierWorkerEquivalence(t *testing.T) {
	run := func(workers int) Result {
		o := tiny()
		o.Workers = workers
		return Frontier(o)
	}
	if a, b := run(1), run(8); a.Text != b.Text {
		t.Fatalf("frontier text diverges between workers=1 and workers=8:\n%s\n---\n%s", a.Text, b.Text)
	}
}

// TestFaultSweepWorkerEquivalence covers the sweep grid the faultsweep
// CLI exposes: the mesh baselines and every (penalty, app) point run
// through the same pool and must be invisible to the output.
func TestFaultSweepWorkerEquivalence(t *testing.T) {
	run := func(workers int) Result {
		o := tiny()
		o.Workers = workers
		return Faults(o)
	}
	if a, b := run(1), run(8); a.Text != b.Text {
		t.Fatalf("faults text diverges between workers=1 and workers=8:\n%s\n---\n%s", a.Text, b.Text)
	}
}
