package core

import (
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
	"fsoi/internal/sim/shard"
)

// windowedNet builds a 16-node FSOI network with the given §5
// optimizations on a 2-shard, 1-worker windowed engine (nodes 0-7 on
// shard 0, 8-15 on shard 1), each node's slice ticking on its home
// shard. The caller must Close the engine.
func windowedNet(opt Optimizations) (*Network, *shard.Windows) {
	cfg := PaperConfig(16)
	cfg.Opt = opt
	e := shard.NewWindows(2, 1)
	e.AssignNodes(cfg.Nodes)
	n := New(cfg, e, sim.NewRNG(1))
	e.SetLookahead(n.Lookahead())
	n.SetBitErrorRate(0)
	n.SetDelivery(func(*noc.Packet, sim.Cycle) {})
	for i := 0; i < cfg.Nodes; i++ {
		id := i
		e.ForNode(i).Register(sim.TickFunc(func(now sim.Cycle) { n.TickNode(id, now) }))
	}
	return n, e
}

// sendFrom injects p from its source node's own context at cycle 1, so
// every event the send schedules is keyed to that node and every
// cross-shard leg goes through the window barrier.
func sendFrom(t *testing.T, n *Network, e *shard.Windows, p *noc.Packet) {
	t.Helper()
	e.ForNode(p.Src).At(1, func(sim.Cycle) {
		if !n.Send(p) {
			t.Error("send rejected")
		}
	})
}

// TestWritebackReservationExpiresOnHomeShard is the regression test for
// the expireReservation hazard fsoilint's shardsafety pass flagged: the
// §5.2 writeback split reserves a data slot in the *home* node's
// receiver state, and the expiry event used to be scheduled with a bare
// engine.At — running it on whichever shard processed the sender
// instead of the shard owning the home node. The expiry now routes
// through noc.ScheduleAt, so on the windowed engine the split must
// cross shards through the barrier and still release the reservation
// (a misrouted expiry would mutate the home shard's map from the wrong
// shard, or panic under the window barrier).
func TestWritebackReservationExpiresOnHomeShard(t *testing.T) {
	n, e := windowedNet(Optimizations{WritebackSplit: true})
	defer e.Close()

	// Src on shard 0, home (Dst) on shard 1: the reservation and its
	// expiry belong to the other shard.
	src, home := 1, 9
	if e.NodeShard(src) == e.NodeShard(home) {
		t.Fatalf("nodes %d and %d landed on the same shard; pick farther apart", src, home)
	}
	sendFrom(t, n, e, &noc.Packet{Src: src, Dst: home, Type: noc.Data, IsWriteback: true})
	// The announcement rides to the home node (ConfirmDelay cycles);
	// only then does the home node's own context make the reservation.
	e.Run(4)
	hs := n.nodes[home]
	if len(hs.reserved) == 0 {
		t.Fatal("writeback announce did not reserve a slot at the home node")
	}
	before := e.Handoffs()
	e.Run(5000)
	if len(hs.reserved) != 0 {
		t.Fatalf("home-node reservation never expired: %v", hs.reserved)
	}
	if e.Handoffs() == before {
		t.Fatal("no cross-shard handoffs after the reservation — the grant and writeback never crossed the barrier")
	}
}

// TestReceiverSchedulingReservationExpires covers the sibling path: a
// request with receiver scheduling reserves the reply slot at its own
// node, and the expiry routed through noc.ScheduleAt with the source
// node must still clean it up on the local shard while the request
// itself crosses to the other shard.
func TestReceiverSchedulingReservationExpires(t *testing.T) {
	n, e := windowedNet(Optimizations{ReceiverScheduling: true})
	defer e.Close()

	src, dst := 2, 11
	if e.NodeShard(src) == e.NodeShard(dst) {
		t.Fatalf("nodes %d and %d landed on the same shard; pick farther apart", src, dst)
	}
	sendFrom(t, n, e, &noc.Packet{Src: src, Dst: dst, Type: noc.Meta, ExpectsDataReply: true})
	e.Run(2)
	ss := n.nodes[src]
	if len(ss.reserved) == 0 {
		t.Fatal("receiver scheduling did not reserve the reply slot")
	}
	before := e.Handoffs()
	e.Run(5000)
	if len(ss.reserved) != 0 {
		t.Fatalf("reply-slot reservation never expired: %v", ss.reserved)
	}
	if e.Handoffs() == before {
		t.Fatal("no cross-shard handoffs recorded — the request never reached the other shard")
	}
}
