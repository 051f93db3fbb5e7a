// Package mesh implements the paper's electrical baselines: a 2-D mesh of
// canonical 4-stage virtual-channel wormhole routers with credit-based
// flow control and XY routing (the "MESH" configuration of Figures 6/7),
// and the idealized L0 / Lr1 / Lr2 networks used as loose upper bounds.
package mesh

import (
	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// port indices within a router.
const (
	portLocal = iota
	portNorth
	portSouth
	portEast
	portWest
	numPorts
)

// flit is the unit of buffering and link transfer.
type flit struct {
	pkt     *noc.Packet
	head    bool
	tail    bool
	readyAt sim.Cycle // cycle at which the router pipeline releases it
}

// vc is one virtual-channel input FIFO and its wormhole state.
type vc struct {
	fifo    []flit
	outPort int // routed output for the current packet (-1 = not routed)
	outVC   int // downstream VC held by the current packet (-1 = none)
}

// outputState tracks the downstream side of one output port.
type outputState struct {
	creditsPerVC []int  // credits available toward the downstream input VC
	vcHeld       []bool // whether a downstream VC is currently allocated
	lastVC       int    // round-robin pointer for VC allocation
	lastInput    int    // round-robin pointer for switch allocation
}

// router is a canonical input-queued VC router. The 4-stage pipeline
// (route computation, VC allocation, switch allocation, switch traversal)
// is modeled by delaying each flit RouterCycles after arrival before it
// may traverse, with allocation contention resolved cycle by cycle.
type router struct {
	id      int
	cfg     Config
	inputs  [numPorts][]*vc
	outputs [numPorts]*outputState
	// neighbor[p] is the router on port p, nil at mesh edges / local.
	neighbor [numPorts]*router
	// reverse[p] is the port index of this router as seen by neighbor[p].
	reverse [numPorts]int
	net     *Network
}

func newRouter(id int, cfg Config, net *Network) *router {
	r := &router{id: id, cfg: cfg, net: net}
	for p := 0; p < numPorts; p++ {
		r.inputs[p] = make([]*vc, cfg.VCs)
		for v := range r.inputs[p] {
			r.inputs[p][v] = &vc{outPort: -1, outVC: -1}
		}
		out := &outputState{
			creditsPerVC: make([]int, cfg.VCs),
			vcHeld:       make([]bool, cfg.VCs),
		}
		for v := range out.creditsPerVC {
			out.creditsPerVC[v] = cfg.BufferFlits
		}
		r.outputs[p] = out
	}
	return r
}

// xyRoute computes the output port for dst under dimension-order routing.
func (r *router) xyRoute(dst int) int {
	dim := r.cfg.Dim
	myX, myY := r.id%dim, r.id/dim
	dX, dY := dst%dim, dst/dim
	switch {
	case dX > myX:
		return portEast
	case dX < myX:
		return portWest
	case dY > myY:
		return portSouth
	case dY < myY:
		return portNorth
	default:
		return portLocal
	}
}

// acceptFlit buffers a flit arriving on input port p, VC v.
func (r *router) acceptFlit(p, v int, f flit, now sim.Cycle) {
	f.readyAt = now + sim.Cycle(r.cfg.RouterCycles)
	r.inputs[p][v].fifo = append(r.inputs[p][v].fifo, f)
}

// tick performs one cycle of allocation and traversal. Determinism comes
// from fixed iteration order with rotating round-robin pointers.
func (r *router) tick(now sim.Cycle) {
	// Stage 1: route computation + VC allocation for head flits at the
	// front of each input VC.
	for p := 0; p < numPorts; p++ {
		for v := 0; v < r.cfg.VCs; v++ {
			in := r.inputs[p][v]
			if len(in.fifo) == 0 {
				continue
			}
			f := in.fifo[0]
			if !f.head || f.readyAt > now {
				continue
			}
			if in.outPort < 0 {
				in.outPort = r.xyRoute(f.pkt.Dst)
			}
			if in.outVC < 0 && in.outPort != portLocal {
				out := r.outputs[in.outPort]
				for i := 0; i < r.cfg.VCs; i++ {
					cand := (out.lastVC + 1 + i) % r.cfg.VCs
					if !out.vcHeld[cand] {
						out.vcHeld[cand] = true
						out.lastVC = cand
						in.outVC = cand
						break
					}
				}
			}
		}
	}

	// Stage 2: switch allocation + traversal. Each output accepts at most
	// one flit per cycle; each input VC sends at most one flit per cycle.
	for outPort := 0; outPort < numPorts; outPort++ {
		out := r.outputs[outPort]
		claimed := false
		for i := 0; i < numPorts*r.cfg.VCs && !claimed; i++ {
			idx := (out.lastInput + 1 + i) % (numPorts * r.cfg.VCs)
			p, v := idx/r.cfg.VCs, idx%r.cfg.VCs
			in := r.inputs[p][v]
			if len(in.fifo) == 0 || in.outPort != outPort {
				continue
			}
			f := in.fifo[0]
			if f.readyAt > now {
				continue
			}
			if outPort == portLocal {
				// Ejection: consume the flit; deliver on tail.
				r.consume(in, p, v, f, now)
				out.lastInput = idx
				claimed = true
				continue
			}
			if in.outVC < 0 || out.creditsPerVC[in.outVC] <= 0 {
				continue
			}
			// Traverse switch and link: arrives downstream after link
			// latency.
			out.creditsPerVC[in.outVC]--
			r.forward(in, p, v, f, outPort, now)
			out.lastInput = idx
			claimed = true
		}
	}
}

// consume ejects a flit at the local port.
func (r *router) consume(in *vc, p, v int, f flit, now sim.Cycle) {
	in.fifo = in.fifo[1:]
	r.returnCredit(p, v)
	if f.tail {
		in.outPort, in.outVC = -1, -1
		r.net.deliver(f.pkt, now)
	}
}

// forward moves a flit to the downstream router.
func (r *router) forward(in *vc, p, v int, f flit, outPort int, now sim.Cycle) {
	in.fifo = in.fifo[1:]
	r.returnCredit(p, v)
	next := r.neighbor[outPort]
	dstPort := r.reverse[outPort]
	dstVC := in.outVC
	if f.tail {
		// Release the downstream VC once the tail is in flight; the
		// downstream hold is released when the tail leaves that buffer,
		// approximated here by releasing on hand-off, which is safe
		// because credits still bound buffer occupancy.
		r.outputs[outPort].vcHeld[dstVC] = false
		in.outPort, in.outVC = -1, -1
	}
	// The downstream router belongs to another node: hand the flit over
	// through noc.ScheduleAt so it lands in the owner's context. The link
	// traversal is exactly the Lookahead() window.
	arrival := now + sim.Cycle(r.cfg.LinkCycles)
	noc.ScheduleAt(r.net.engine, next.id, arrival, func(at sim.Cycle) {
		next.acceptFlit(dstPort, dstVC, f, at)
	})
}

// returnCredit gives a buffer slot back to the upstream router.
func (r *router) returnCredit(p, v int) {
	if p == portLocal {
		r.net.injectCredit(r.id, v)
		return
	}
	up := r.neighbor[p]
	if up == nil {
		return
	}
	upPort := r.reverse[p]
	up.outputs[upPort].creditsPerVC[v]++
}
