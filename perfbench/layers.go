package main

import (
	"fsoi/internal/memory"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

// cellTrace is what the traced repetition reads from one cell's public
// counters right after its Run.
type cellTrace struct {
	injects   []inject
	obsEvents int64
	events    uint64
	queueHWM  int
	l1Acc     int64
	l1Miss    int64
	dirReq    int64
	dirNacks  int64
	memReads  int64
	memWrites int64
	ops       int64
}

func inspectCell(s *system.System, m *system.Metrics) cellTrace {
	evs := m.Obs.Events()
	c := cellTrace{injects: injections(evs), obsEvents: int64(len(evs))}
	eng := s.Engine()
	c.events, c.queueHWM = eng.EventsFired(), eng.MaxQueueDepth()
	for i := 0; i < m.Nodes; i++ {
		l1 := s.L1(i).Stats()
		c.l1Acc += l1.Hits + l1.Misses
		c.l1Miss += l1.Misses
		d := s.Directory(i).Stats()
		c.dirReq += d.Requests
		c.dirNacks += d.Nacks
		c.memReads += d.MemReads
		c.memWrites += d.MemWrites
		c.ops += s.CoreStats(i).Ops
	}
	return c
}

// windowedWorkers is the windowed engine's worker count in the traced
// run: the ROADMAP's -par 2, equal to the 2-core host's nproc.
const windowedWorkers = 2

// traced runs the traced repetition of a workload after its untraced
// measurement m: one run with observation on, whose counters and
// recorded injection streams feed one replay per layer, and the FSOI
// cells on the windowed engine.
func traced(w workloadSpec, o options, m *measurement, t *tracer) map[string]metric {
	ref := m.reps[0]
	cells := make([]cellTrace, len(w.Cells))
	cfgs := make([]system.Config, len(w.Cells))
	apps := make([]workload.App, len(w.Cells))
	for i, c := range w.Cells {
		cfgs[i], apps[i] = c.config(o.seed)
	}

	t.begin("trace")
	t.begin("run.observed")
	observed := runRep(w, o.seed, func(c *system.Config) { c.Observe = true }, func(i int, s *system.System, mt *system.Metrics) {
		cells[i] = inspectCell(s, mt)
	})
	t.end()
	m.check(observed, ref.digest)

	// The workload's FSOI cells again on the windowed engine with
	// windowedWorkers workers, one cell at a time, then the same schedule
	// (same shard count) with one worker, which must give the identical
	// canonical listing. The windowed schedule differs from the serial
	// engine's by design, so only completion is gated against the
	// serial runs.
	fsoi := workloadSpec{Name: w.Name, Workers: 1}
	for _, c := range w.Cells {
		if c.Net == system.NetFSOI {
			fsoi.Cells = append(fsoi.Cells, c)
		}
	}
	var windows, handoffs, tight uint64
	var par, w1 rep
	if len(fsoi.Cells) > 0 {
		meters := make([][3]uint64, len(fsoi.Cells))
		t.begin("run.windowed")
		par = runRep(fsoi, o.seed, func(c *system.Config) { c.ParWorkers = windowedWorkers }, func(i int, s *system.System, _ *system.Metrics) {
			we := s.WindowEngine()
			meters[i] = [3]uint64{we.WindowCount(), we.Handoffs(), we.TightHandoffs()}
		})
		t.end()
		m.check(par, par.digest)
		t.begin("run.w1")
		w1 = runRep(fsoi, o.seed, func(c *system.Config) { c.Shards, c.ParWorkers = windowedWorkers, 1 }, nil)
		t.end()
		m.check(w1, par.digest)
		for _, mt := range meters {
			windows += mt[0]
			handoffs += mt[1]
			tight += mt[2]
		}
	}

	var events uint64
	hwm := 0
	for _, c := range cells {
		events += c.events
		if c.queueHWM > hwm {
			hwm = c.queueHWM
		}
	}
	t.begin("replay.sim")
	replayed := replayEngine(t, hwm, min(events, engineEventCap), o.seed)
	t.end()

	// One workload and coherence replay per distinct application and
	// size; the grid runs each application on five networks.
	type appKey struct {
		app   string
		nodes int
	}
	seen := map[appKey]bool{}
	var wlOps int64
	var coh coherenceReplay
	for i, c := range w.Cells {
		k := appKey{c.App, c.Nodes}
		if seen[k] {
			continue
		}
		seen[k] = true
		t.begin("replay.workload")
		ops := replayWorkload(t, apps[i], c.Nodes, o.seed)
		t.end()
		for _, l := range ops {
			wlOps += int64(len(l))
		}
		t.begin("replay.coherence")
		r := replayCoherence(t, cfgs[i], ops)
		t.end()
		coh.accesses += r.accesses
		coh.ticks += r.ticks
	}

	// The FSOI cells' streams replay through core; the mesh cells'
	// streams through mesh, or the FSOI streams when the workload has no
	// mesh cell (the mesh numbers then predict what the same traffic
	// would cost there).
	var coreR, meshR netReplay
	var flitHops int64
	hasMesh := false
	for _, c := range w.Cells {
		hasMesh = hasMesh || c.Net == system.NetMesh
	}
	t.begin("replay.core")
	for i, c := range w.Cells {
		if c.Net == system.NetFSOI {
			coreR = coreR.add(replayCore(t, cfgs[i], cells[i].injects))
		}
	}
	t.end()
	t.begin("replay.mesh")
	for i, c := range w.Cells {
		if c.Net == system.NetMesh || (!hasMesh && c.Net == system.NetFSOI) {
			r, hops := replayMesh(t, c.Nodes, cells[i].injects)
			meshR = meshR.add(r)
			flitHops += hops
		}
	}
	t.end()
	t.end()
	st := t.stats()
	total := func(name string) float64 {
		if s := st[name]; s != nil {
			return float64(s.total)
		}
		return 0
	}
	self := func(name string) float64 {
		if s := st[name]; s != nil {
			return float64(s.self)
		}
		return 0
	}

	// Simulated counts of the real run.
	var simCycles, tickCalls, cohTicks, nodeCyclesFSOI, routerCyclesMesh, attempts, collided float64
	var fsoiInjects, meshInjects, memChanCycles, occupancyCycles float64
	var latSum, latN, replySum, replyN float64
	var ct cellTrace
	for i, mt := range ref.metrics {
		c := w.Cells[i]
		cyc := float64(mt.Cycles)
		simCycles += cyc
		netTickers := 1.0
		if c.Net == system.NetFSOI {
			netTickers = float64(c.Nodes)
			nodeCyclesFSOI += float64(c.Nodes) * cyc
			for l := range mt.FSOI.Attempts {
				attempts += float64(mt.FSOI.Attempts[l])
				collided += float64(mt.FSOI.Collided[l])
			}
			fsoiInjects += float64(len(cells[i].injects))
		}
		if c.Net == system.NetMesh {
			routerCyclesMesh += float64(c.Nodes) * cyc
			meshInjects += float64(len(cells[i].injects))
		}
		tickCalls += (netTickers + 2*float64(c.Nodes)) * cyc
		cohTicks += 2 * float64(c.Nodes) * cyc
		latSum += mt.Latency.Total.Sum()
		latN += float64(mt.Latency.Total.N())
		replySum += mt.ReplyHist.Mean() * float64(mt.ReplyHist.Total())
		replyN += float64(mt.ReplyHist.Total())
		channels := map[int]bool{}
		for _, n := range memory.AttachNodes(meshDim(c.Nodes), cfgs[i].Memory.Channels) {
			channels[n] = true
		}
		memChanCycles += float64(len(channels)) * cyc
		cl := cells[i]
		occupancyCycles += float64(cl.memReads+cl.memWrites) * float64(cfgs[i].Memory.LineOccupancyCycles())
		ct.obsEvents += cl.obsEvents
		ct.l1Acc += cl.l1Acc
		ct.l1Miss += cl.l1Miss
		ct.dirReq += cl.dirReq
		ct.dirNacks += cl.dirNacks
		ct.memReads += cl.memReads
		ct.memWrites += cl.memWrites
		ct.ops += cl.ops
	}

	// Host times of the untraced repetitions.
	var maxCell, gridEff, gcCycles []float64
	var gcCPU, cpuAll float64
	cellMed := make([][]float64, len(w.Cells))
	for _, r := range m.reps {
		var sum, mx float64
		for i, cw := range r.cellWall {
			sum += cw
			mx = max(mx, cw)
			cellMed[i] = append(cellMed[i], cw)
		}
		maxCell = append(maxCell, mx)
		gridEff = append(gridEff, ratio(sum, float64(w.Workers)*r.wall))
		gcCycles = append(gcCycles, r.gcCycles)
		gcCPU += r.gcCPU
		cpuAll += r.cpu
	}
	var cellSum, fsoiWall, meshWall float64
	for i, cw := range cellMed {
		med := median(cw)
		cellSum += med
		switch w.Cells[i].Net {
		case system.NetFSOI:
			fsoiWall += med
		case system.NetMesh:
			meshWall += med
		}
	}
	var observedSum float64
	for _, cw := range observed.cellWall {
		observedSum += cw
	}

	nsPerTick := ratio(self("core.chunk"), float64(coreR.nodeCycles))
	nsPerSend := ratio(total("core.send"), float64(coreR.sends))
	nsPerRouterCycle := ratio(self("mesh.chunk"), float64(meshR.nodeCycles))
	nsPerMeshSend := ratio(total("mesh.send"), float64(meshR.sends))

	out := map[string]metric{
		"sim.events":       {float64(events), "count"},
		"sim.queue_hwm":    {float64(hwm), "count"},
		"sim.tick_calls":   {tickCalls, "count"},
		"sim.ns_per_event": {ratio(total("sim.chunk"), float64(replayed)), "ns"},

		"core.attempts":        {attempts, "count"},
		"core.tick_work_ratio": {ratio(attempts, nodeCyclesFSOI), "ratio"},
		"core.collision_frac":  {ratio(collided, attempts), "ratio"},
		"core.ns_per_tick":     {nsPerTick, "ns"},
		"core.ns_per_send":     {nsPerSend, "ns"},
		"core.busy_share":      {ratio(nodeCyclesFSOI*nsPerTick+fsoiInjects*nsPerSend, fsoiWall*1e9), "ratio"},

		"coherence.l1_accesses":     {float64(ct.l1Acc), "count"},
		"coherence.l1_miss_frac":    {ratio(float64(ct.l1Miss), float64(ct.l1Acc)), "ratio"},
		"coherence.dir_requests":    {float64(ct.dirReq), "count"},
		"coherence.dir_nacks":       {float64(ct.dirNacks), "count"},
		"coherence.tick_work_ratio": {ratio(float64(ct.l1Acc+ct.dirReq), cohTicks), "ratio"},
		"coherence.ns_per_access":   {ratio(total("coherence.access"), float64(coh.accesses)), "ns"},
		"coherence.ns_per_tick":     {ratio(self("coherence.chunk"), float64(coh.ticks)), "ns"},

		"mesh.flit_hops":           {float64(flitHops), "count"},
		"mesh.tick_work_ratio":     {ratio(float64(flitHops), float64(meshR.nodeCycles)), "ratio"},
		"mesh.ns_per_router_cycle": {nsPerRouterCycle, "ns"},
		"mesh.busy_share":          {ratio(routerCyclesMesh*nsPerRouterCycle+meshInjects*nsPerMeshSend, meshWall*1e9), "ratio"},

		"cpu.ops":            {float64(ct.ops), "count"},
		"workload.ns_per_op": {ratio(total("workload.next"), float64(wlOps)), "ns"},
		"memory.reads":       {float64(ct.memReads), "count"},
		"memory.writes":      {float64(ct.memWrites), "count"},
		"memory.busy_frac":   {ratio(occupancyCycles, memChanCycles), "ratio"},

		"shard.windows":           {float64(windows), "count"},
		"shard.handoffs":          {float64(handoffs), "count"},
		"shard.tight_handoffs":    {float64(tight), "count"},
		"shard.us_per_window":     {ratio(par.wall*1e6, float64(windows)), "us"},
		"shard.w1_wall_s":         {w1.wall, "s"},
		"shard.par_efficiency":    {ratio(w1.wall, windowedWorkers*par.wall), "ratio"},
		"shard.speedup_vs_serial": {ratio(fsoiWall, par.wall), "ratio"},

		"parallel.cells":           {float64(len(w.Cells)), "count"},
		"parallel.max_cell_s":      {median(maxCell), "s"},
		"parallel.grid_efficiency": {median(gridEff), "ratio"},

		"obs.events":        {float64(ct.obsEvents), "count"},
		"obs.overhead_frac": {ratio(observedSum, cellSum) - 1, "ratio"},

		"go.gc_cycles":   {median(gcCycles), "count"},
		"go.gc_cpu_frac": {ratio(gcCPU, cpuAll), "ratio"},

		"model.sim_cycles":           {simCycles, "cycles"},
		"model.pkt_latency_cycles":   {ratio(latSum, latN), "cycles"},
		"model.reply_latency_cycles": {ratio(replySum, replyN), "cycles"},
	}
	return out
}
