package mesh

import (
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// handoffRecorder is a serial engine that also implements sim.Sharder
// with one shard per node, counting every handoff noc.ScheduleAt routes
// to it and scheduling it on the same queue.
type handoffRecorder struct {
	*sim.Engine
	handoffs int
}

func (h *handoffRecorder) NodeShard(node int) int { return node }

func (h *handoffRecorder) Handoff(_ int, at sim.Cycle, fn func(now sim.Cycle)) {
	h.handoffs++
	h.At(at, fn)
}

// meshTraffic drives an all-to-neighbor burst through a 4x4 mesh on the
// given scheduler and returns the delivered packets in delivery order.
func meshTraffic(t *testing.T, engine sim.Scheduler, run func(sim.Cycle) sim.Cycle, reg func(sim.Ticker)) []*noc.Packet {
	t.Helper()
	n := New(PaperMesh(4), engine)
	var delivered []*noc.Packet
	n.SetDelivery(func(p *noc.Packet, now sim.Cycle) { delivered = append(delivered, p) })
	reg(sim.TickFunc(n.Tick))
	for src := 0; src < 16; src++ {
		for _, dst := range []int{(src + 1) % 16, (src + 5) % 16} {
			typ := noc.Meta
			if src%3 == 0 {
				typ = noc.Data
			}
			if !n.Send(&noc.Packet{Src: src, Dst: dst, Type: typ}) {
				t.Fatalf("send %d->%d rejected", src, dst)
			}
		}
	}
	run(2000)
	return delivered
}

// TestForwardRoutesThroughOwnerShard is the regression test for the
// forward() hazard fsoilint's shardsafety pass flagged: flits crossing
// to a downstream router used to be scheduled with a bare engine.At
// wrapper, which never handed them to the node owning the receiving
// router. Forward now routes through noc.ScheduleAt, so on a scheduler
// that shards by node the flits must arrive as recorded handoffs, and
// the run must stay identical to the plain serial engine in delivery
// order and per-packet latency.
func TestForwardRoutesThroughOwnerShard(t *testing.T) {
	serialEngine := sim.NewEngine()
	serial := meshTraffic(t, serialEngine, serialEngine.Run, serialEngine.Register)
	if len(serial) != 32 {
		t.Fatalf("serial run delivered %d of 32", len(serial))
	}

	rec := &handoffRecorder{Engine: sim.NewEngine()}
	routed := meshTraffic(t, rec, rec.Run, rec.Register)
	if rec.handoffs == 0 {
		t.Fatal("no handoffs recorded — forward() is bypassing noc.ScheduleAt again")
	}
	if len(routed) != len(serial) {
		t.Fatalf("delivered %d packets, serial delivered %d", len(routed), len(serial))
	}
	for i := range serial {
		s, p := serial[i], routed[i]
		if s.Src != p.Src || s.Dst != p.Dst || s.TotalLatency() != p.TotalLatency() {
			t.Fatalf("packet %d diverged: serial %d->%d lat %d, routed %d->%d lat %d",
				i, s.Src, s.Dst, s.TotalLatency(), p.Src, p.Dst, p.TotalLatency())
		}
	}
}
