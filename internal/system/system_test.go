package system

import (
	"testing"

	"fsoi/internal/workload"
)

// tinyApp returns a short workload for fast integration runs.
func tinyApp(t *testing.T, name string) workload.App {
	t.Helper()
	app, ok := workload.ByName(name, 0.01)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	return app
}

func runTiny(t *testing.T, name string, kind NetworkKind, nodes int, mutate func(*Config)) Metrics {
	t.Helper()
	cfg := Default(nodes, kind)
	cfg.MaxCycles = 3_000_000
	if mutate != nil {
		mutate(&cfg)
	}
	m := New(cfg).Run(tinyApp(t, name))
	if !m.Finished {
		t.Fatalf("%s on %s (%d nodes) did not finish", name, kind, nodes)
	}
	return m
}

func TestEveryNetworkCompletes(t *testing.T) {
	for _, kind := range []NetworkKind{NetFSOI, NetMesh, NetL0, NetLr1, NetLr2, NetCorona} {
		m := runTiny(t, "jacobi", kind, 16, nil)
		if m.Cycles <= 0 || m.Latency.Delivered == 0 {
			t.Fatalf("%v: degenerate run %+v", kind, m.Cycles)
		}
	}
}

func TestSixtyFourNodesComplete(t *testing.T) {
	m := runTiny(t, "fft", NetFSOI, 64, nil)
	if m.Nodes != 64 {
		t.Fatal("node count wrong")
	}
	mm := runTiny(t, "fft", NetMesh, 64, nil)
	if mm.Latency.MeanTotal() <= m.Latency.MeanTotal() {
		t.Fatalf("64-node mesh latency %.1f should exceed FSOI %.1f",
			mm.Latency.MeanTotal(), m.Latency.MeanTotal())
	}
}

func TestDeterminism(t *testing.T) {
	a := runTiny(t, "mp3d", NetFSOI, 16, nil)
	b := runTiny(t, "mp3d", NetFSOI, 16, nil)
	if a.Cycles != b.Cycles || a.MetaPackets != b.MetaPackets || a.DataPackets != b.DataPackets {
		t.Fatalf("same-seed runs differ: %d/%d vs %d/%d packets, %d vs %d cycles",
			a.MetaPackets, a.DataPackets, b.MetaPackets, b.DataPackets, a.Cycles, b.Cycles)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a := runTiny(t, "mp3d", NetFSOI, 16, nil)
	b := runTiny(t, "mp3d", NetFSOI, 16, func(c *Config) { c.Seed = 2 })
	if a.Cycles == b.Cycles && a.MetaPackets == b.MetaPackets {
		t.Fatal("different seeds should perturb the run")
	}
}

func TestFSOILatencyBeatsMesh(t *testing.T) {
	f := runTiny(t, "ocean", NetFSOI, 16, nil)
	m := runTiny(t, "ocean", NetMesh, 16, nil)
	if f.Latency.MeanTotal() >= m.Latency.MeanTotal() {
		t.Fatalf("FSOI latency %.1f should beat mesh %.1f",
			f.Latency.MeanTotal(), m.Latency.MeanTotal())
	}
}

func TestLockHeavyAppOnBothSyncFabrics(t *testing.T) {
	sub := runTiny(t, "raytrace", NetFSOI, 16, nil)
	coh := runTiny(t, "raytrace", NetFSOI, 16, func(c *Config) { c.ForceCoherentSync = true })
	if sub.FSOI.ConfirmBits == 0 {
		t.Fatal("subscription sync must use confirmation bits")
	}
	if coh.FSOI.ConfirmBits > sub.FSOI.ConfirmBits {
		t.Fatal("coherent sync should not use more confirmation bits")
	}
}

func TestMeshSyncCompletes(t *testing.T) {
	m := runTiny(t, "raytrace", NetMesh, 16, nil)
	if m.SyncStall == 0 {
		t.Fatal("lock-heavy app must record sync stalls")
	}
}

func TestOptimizationsReduceCollisions(t *testing.T) {
	app, _ := workload.ByName("mp3d", 0.05)
	run := func(opt bool) Metrics {
		cfg := Default(16, NetFSOI)
		cfg.MaxCycles = 10_000_000
		if !opt {
			cfg.FSOI.Opt.AckElision = false
			cfg.FSOI.Opt.ReceiverScheduling = false
			cfg.FSOI.Opt.WritebackSplit = false
			cfg.FSOI.Opt.RetransmitHints = false
			cfg.ForceCoherentSync = true
		}
		m := New(cfg).Run(app)
		if !m.Finished {
			t.Fatal("run did not finish")
		}
		return m
	}
	off := run(false)
	on := run(true)
	if on.ElidedAcks == 0 {
		t.Fatal("ack elision inactive")
	}
	if on.MetaPackets >= off.MetaPackets {
		t.Fatalf("elision should cut meta packets: %d vs %d", on.MetaPackets, off.MetaPackets)
	}
}

func TestEnergyAccounting(t *testing.T) {
	f := runTiny(t, "lu", NetFSOI, 16, nil)
	m := runTiny(t, "lu", NetMesh, 16, nil)
	if f.Energy.Total() <= 0 || m.Energy.Total() <= 0 {
		t.Fatal("energy must be positive")
	}
	if f.Energy.Network >= m.Energy.Network {
		t.Fatalf("FSOI network energy %.2g should be far below mesh %.2g",
			f.Energy.Network, m.Energy.Network)
	}
	if f.AvgPowerW <= 0 || f.AvgPowerW > 1000 {
		t.Fatalf("implausible power %.1f W", f.AvgPowerW)
	}
}

func TestMemoryBandwidthMatters(t *testing.T) {
	slow := runTiny(t, "radix", NetFSOI, 16, nil)
	fast := runTiny(t, "radix", NetFSOI, 16, func(c *Config) { c.Memory.TotalGBps = 52.8 })
	if fast.Cycles >= slow.Cycles {
		t.Fatalf("6x memory bandwidth should help: %d vs %d cycles", fast.Cycles, slow.Cycles)
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := Metrics{Cycles: 100}
	b := Metrics{Cycles: 200}
	if a.Speedup(b) != 2 {
		t.Fatal("speedup math wrong")
	}
	var zero Metrics
	if zero.Speedup(b) != 0 {
		t.Fatal("zero-cycle guard missing")
	}
}

func TestReplyHistogramPopulated(t *testing.T) {
	m := runTiny(t, "em3d", NetFSOI, 16, nil)
	if m.ReplyHist.Total() == 0 {
		t.Fatal("reply-latency histogram empty")
	}
	if m.ReplyHist.Mean() <= 0 {
		t.Fatal("reply latency mean must be positive")
	}
}

func TestNetworkKindStrings(t *testing.T) {
	want := map[NetworkKind]string{
		NetFSOI: "fsoi", NetMesh: "mesh", NetL0: "L0",
		NetLr1: "Lr1", NetLr2: "Lr2", NetCorona: "corona",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestMeshDimPanicsOnNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square node counts must panic")
		}
	}()
	meshDim(15)
}

func TestPacketCountsConsistent(t *testing.T) {
	m := runTiny(t, "shallow", NetFSOI, 16, nil)
	if m.MetaPackets == 0 || m.DataPackets == 0 {
		t.Fatal("both packet classes must flow")
	}
	if m.Invalidations == 0 {
		t.Fatal("a sharing workload must invalidate")
	}
}

// TestSerial256Smoke is the scale smoke: a 256-node CMP assembles and
// completes a short workload on the serial engine, which is also what
// the frontier's 256/1024-node scale half runs on.
func TestSerial256Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node smoke runs only without -short")
	}
	app, ok := workload.ByName("jacobi", 0.002)
	if !ok {
		t.Fatal("unknown app jacobi")
	}
	cfg := Default(256, NetFSOI)
	cfg.MaxCycles = 3_000_000
	m := New(cfg).Run(app)
	if !m.Finished {
		t.Fatal("256-node run did not finish")
	}
	if m.Nodes != 256 || m.Latency.Delivered == 0 {
		t.Fatalf("degenerate 256-node run: nodes=%d delivered=%d", m.Nodes, m.Latency.Delivered)
	}
}

// TestShardsNeedParWorkers pins the engine-selection gate: a shard
// count only partitions the windowed engine, so Shards > 1 without
// ParWorkers is an error from Validate and a panic from New — never a
// silent serial run.
func TestShardsNeedParWorkers(t *testing.T) {
	cfg := Default(16, NetFSOI)
	cfg.Shards = 4
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted Shards 4 without ParWorkers")
	}
	cfg.ParWorkers = 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected a windowed partition: %v", err)
	}
	cfg.ParWorkers = 0
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted Shards 4 without ParWorkers")
		}
	}()
	New(cfg)
}
