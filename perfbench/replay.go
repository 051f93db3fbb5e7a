package main

import (
	"strconv"

	"fsoi/internal/cache"
	"fsoi/internal/coherence"
	"fsoi/internal/core"
	"fsoi/internal/cpu"
	"fsoi/internal/memory"
	"fsoi/internal/mesh"
	"fsoi/internal/noc"
	"fsoi/internal/obs"
	"fsoi/internal/sim"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

// The replays drive one layer at a time through its public functions on
// a private serial engine, timing each batch of calls as a span.
const (
	// chunkCycles is the length of one ".chunk" span: the engine steps
	// (ticks and the layer's own events) between them are the layer's
	// tick cost, once the child spans of its other calls are taken out.
	chunkCycles = 4096
	// coreNodeCycles and meshNodeCycles cap a network replay at this
	// many node-cycles of the recorded stream, so one replay stays near a
	// second: a TickNode call costs tens of ns, a loaded mesh router
	// cycle up to a microsecond.
	coreNodeCycles = 16_000_000
	meshNodeCycles = 1_000_000
	// drainCycles bounds how long a replay runs past its last input
	// waiting for deliveries.
	drainCycles = 1_000_000
	// loopbackCycles is the fixed message latency of the coherence
	// replay's transport, close to the mean FSOI packet latency.
	loopbackCycles = 10
	// engineEventCap bounds the engine replay's event count.
	engineEventCap = 4_000_000
)

// inject is one packet accepted by the network in a recorded run.
type inject struct {
	at       sim.Cycle
	src, dst int32
	class    uint8
}

// injections extracts the injection stream from lifecycle events, which
// the recorder returns in simulated-time order.
func injections(evs []obs.Event) []inject {
	var out []inject
	for _, e := range evs {
		if e.Kind == obs.KindInject {
			out = append(out, inject{at: e.At, src: e.Src, dst: e.Dst, class: e.Class})
		}
	}
	return out
}

// window truncates a stream to a node-cycle cap.
func window(stream []inject, nodes, nodeCycles int) []inject {
	limit := sim.Cycle(nodeCycles / nodes)
	for i, in := range stream {
		if in.at >= limit {
			return stream[:i]
		}
	}
	return stream
}

// netReplay counts what one network replay did.
type netReplay struct {
	sends      int64 // Send calls, rejected ones included
	accepted   int64
	nodeCycles int64 // nodes x engine cycles stepped
}

func (a netReplay) add(b netReplay) netReplay {
	return netReplay{sends: a.sends + b.sends, accepted: a.accepted + b.accepted, nodeCycles: a.nodeCycles + b.nodeCycles}
}

// replayNet offers each recorded packet to send at its recorded cycle,
// retrying rejected ones every cycle, and steps the engine until every
// accepted packet is delivered. Sends at one cycle form a "<layer>.send"
// span inside the running "<layer>.chunk" span.
func replayNet(t *tracer, layer string, nodes int, eng *sim.Engine, send func(*noc.Packet) bool, delivered *int64, stream []inject) netReplay {
	var r netReplay
	var pending []*noc.Packet
	last := sim.Cycle(0)
	if len(stream) > 0 {
		last = stream[len(stream)-1].at
	}
	next := 0
	t.begin(layer + ".chunk")
	for {
		now := eng.Now()
		if now > 0 && now%chunkCycles == 0 {
			t.end()
			t.begin(layer + ".chunk")
		}
		if len(pending) > 0 || (next < len(stream) && stream[next].at <= now) {
			t.begin(layer + ".send")
			kept := pending[:0]
			for _, p := range pending {
				r.sends++
				if send(p) {
					r.accepted++
				} else {
					kept = append(kept, p)
				}
			}
			for ; next < len(stream) && stream[next].at <= now; next++ {
				in := stream[next]
				p := &noc.Packet{ID: uint64(next) + 1, Src: int(in.src), Dst: int(in.dst), Type: noc.PacketType(in.class)}
				r.sends++
				if send(p) {
					r.accepted++
				} else {
					kept = append(kept, p)
				}
			}
			pending = kept
			t.end()
		}
		if (next == len(stream) && len(pending) == 0 && *delivered >= r.accepted) || now > last+drainCycles {
			break
		}
		eng.Step()
	}
	t.end()
	r.nodeCycles = int64(nodes) * int64(eng.Now())
	return r
}

// replayCore drives the FSOI network alone: core.New with the cell's
// optical configuration, one TickNode ticker per node, and Send.
func replayCore(t *tracer, cfg system.Config, stream []inject) netReplay {
	eng := sim.NewEngine()
	fc := cfg.FSOI
	fc.Nodes = cfg.Nodes
	net := core.New(fc, eng, sim.NewRNG(cfg.Seed))
	var delivered int64
	net.SetDelivery(func(*noc.Packet, sim.Cycle) { delivered++ })
	for i := 0; i < cfg.Nodes; i++ {
		id := i
		eng.Register(sim.TickFunc(func(now sim.Cycle) { net.TickNode(id, now) }))
	}
	return replayNet(t, "core", cfg.Nodes, eng, net.Send, &delivered, window(stream, cfg.Nodes, coreNodeCycles))
}

// replayMesh drives the electrical mesh alone: mesh.New at the paper
// configuration, its Tick, and Send. It returns the flit hops moved.
func replayMesh(t *tracer, nodes int, stream []inject) (netReplay, int64) {
	eng := sim.NewEngine()
	net := mesh.New(mesh.PaperMesh(meshDim(nodes)), eng)
	var delivered int64
	net.SetDelivery(func(*noc.Packet, sim.Cycle) { delivered++ })
	eng.Register(sim.TickFunc(net.Tick))
	r := replayNet(t, "mesh", nodes, eng, net.Send, &delivered, window(stream, nodes, meshNodeCycles))
	return r, net.FlitHops()
}

// meshDim returns the edge of a square node count.
func meshDim(nodes int) int {
	d := 1
	for d*d < nodes {
		d++
	}
	return d
}

// replayWorkload drains every node's operation stream through
// workload.Stream.Next, one "workload.next" span per node, and returns
// the operations for the coherence replay.
func replayWorkload(t *tracer, app workload.App, nodes int, seed uint64) [][]cpu.Op {
	ops := make([][]cpu.Op, nodes)
	for i := range ops {
		t.begin("workload.next")
		s := workload.NewStream(app, i, nodes, seed)
		for {
			op, ok := s.Next()
			if !ok {
				break
			}
			ops[i] = append(ops[i], op)
		}
		t.end()
	}
	return ops
}

// loopback is a coherence.Transport that delivers every message a fixed
// latency later, straight to the destination's controller: the
// coherence layer with no network under it.
type loopback struct {
	t    *tracer
	eng  *sim.Engine
	l1s  []*coherence.L1
	dirs []*coherence.Directory
	mems map[int]*memory.Controller
}

func (lb *loopback) Send(m coherence.Msg) bool {
	lb.eng.After(loopbackCycles, func(now sim.Cycle) { lb.deliver(m, now) })
	return true
}

func (lb *loopback) ConfirmationElision() bool { return false }
func (lb *loopback) BooleanSubscription() bool { return false }

func (lb *loopback) SendBit(int, int, uint64, bool) {
	panic("perfbench: the coherence replay issues no synchronization")
}

// deliver routes a message as the system layer does, one span per call.
func (lb *loopback) deliver(m coherence.Msg, now sim.Cycle) {
	switch m.Type {
	case coherence.ReqMem, coherence.MemWrite:
		lb.t.begin("memory.handle")
		lb.mems[m.To].Handle(m, now)
	case coherence.MemAck, coherence.ReqSh, coherence.ReqEx, coherence.ReqUpg,
		coherence.WriteBack, coherence.InvAck, coherence.DwgAck, coherence.SyncReq:
		lb.t.begin("coherence.handle")
		lb.dirs[m.To].Handle(m, now)
	default:
		lb.t.begin("coherence.handle")
		lb.l1s[m.To].Handle(m, now)
	}
	lb.t.end()
}

// coherenceReplay counts what one coherence replay did.
type coherenceReplay struct {
	accesses int64
	ticks    int64 // L1 and directory Tick calls
}

// replayCoherence runs each node's loads and stores, one at a time,
// through L1/Directory pairs over the loopback transport, with the
// cell's cache and memory configuration. Synchronization and compute
// operations are skipped.
func replayCoherence(t *tracer, cfg system.Config, ops [][]cpu.Op) coherenceReplay {
	eng := sim.NewEngine()
	lb := &loopback{t: t, eng: eng, mems: make(map[int]*memory.Controller)}
	nodes := cfg.Nodes
	home := func(a cache.LineAddr) int { return int(uint64(a) % uint64(nodes)) }
	attach := memory.AttachNodes(meshDim(nodes), cfg.Memory.Channels)
	memNode := func(h int) int { return attach[h%cfg.Memory.Channels] }
	rng := sim.NewRNG(cfg.Seed)
	for i := 0; i < nodes; i++ {
		l1 := coherence.NewL1(i, cfg.L1, eng, rng.NewStream("l1-"+strconv.Itoa(i)), lb, home)
		dir := coherence.NewDirectory(i, cfg.Dir, eng, lb, memNode)
		lb.l1s = append(lb.l1s, l1)
		lb.dirs = append(lb.dirs, dir)
		eng.Register(l1)
		eng.Register(dir)
	}
	for _, node := range attach {
		if lb.mems[node] == nil {
			lb.mems[node] = memory.NewController(node, cfg.Memory, eng, func(m coherence.Msg) { lb.Send(m) })
		}
	}

	var r coherenceReplay
	done := 0
	for i := range ops {
		l1, list, next := lb.l1s[i], ops[i], 0
		var issue func(now sim.Cycle)
		issue = func(now sim.Cycle) {
			for next < len(list) && list[next].Kind != cpu.OpLoad && list[next].Kind != cpu.OpStore {
				next++
			}
			if next == len(list) {
				done++
				return
			}
			op := list[next]
			t.begin("coherence.access")
			ok := l1.Access(op.Addr, op.Kind == cpu.OpStore, issue)
			t.end()
			r.accesses++
			if !ok {
				eng.After(1, issue)
				return
			}
			next++
		}
		eng.At(0, issue)
	}
	for {
		t.begin("coherence.chunk")
		for k := 0; k < chunkCycles && !(done == nodes && eng.Pending() == 0); k++ {
			eng.Step()
		}
		t.end()
		if (done == nodes && eng.Pending() == 0) || eng.Now() > drainCycles {
			break
		}
	}
	r.ticks = 2 * int64(nodes) * int64(eng.Now())
	return r
}

// replayEngine exercises the event queue alone: it keeps depth events
// pending, each one rescheduling itself a short pseudo-random delay
// ahead when it fires, and steps until events have fired.
func replayEngine(t *tracer, depth int, events uint64, seed uint64) uint64 {
	if depth < 1 {
		depth = 1
	}
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed).NewStream("perfbench-engine")
	const n = 4096
	var delays [n]sim.Cycle
	for i := range delays {
		delays[i] = 1 + sim.Cycle(rng.Intn(64))
	}
	var fired uint64
	k := 0
	var fire func(now sim.Cycle)
	fire = func(now sim.Cycle) {
		fired++
		k = (k + 1) % n
		eng.At(now+delays[k], fire)
	}
	for i := 0; i < depth; i++ {
		eng.At(delays[i%n], fire)
	}
	for fired < events {
		t.begin("sim.chunk")
		for target := fired + 1<<16; fired < target && fired < events; {
			eng.Step()
		}
		t.end()
	}
	return fired
}
