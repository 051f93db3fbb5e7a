// Package shardfix seeds cross-shard scheduling hazards and the safe
// idioms the shardsafety analyzer must accept. Linted under the
// virtual import path fsoi/internal/mesh, a simulation package.
package shardfix

import (
	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// state stands in for per-node receiver state owned by one shard.
type state struct {
	armed bool
	fifo  []int
	slots map[int64]int
}

// push mutates its receiver: calling it on a captured pointer from a
// scheduled closure is the one-hop interprocedural hazard.
func (s *state) push(v int) {
	s.fifo = append(s.fifo, v)
}

// peek does not mutate: calling it from a closure is fine.
func (s *state) peek() int {
	if len(s.fifo) == 0 {
		return 0
	}
	return s.fifo[0]
}

// Config carries the delay fields the Lookahead contract vouches for.
type Config struct {
	LinkDelay  int
	StaleDelay int
}

// Net is the fixture's network component.
type Net struct {
	engine sim.Scheduler
	cfg    Config
	count  int
	last   int
}

// Lookahead mixes the sanctioned floor idiom with the two drift
// hazards: a bare literal window and a field nothing else reads.
func (n *Net) Lookahead() sim.Cycle {
	if n.cfg.LinkDelay < 1 {
		return 1 // the conservative 0/1 floor stays legal
	}
	_ = n.cfg.StaleDelay                  // want "shardsafety: Lookahead reads n.cfg.StaleDelay but no scheduling site does"
	return sim.Cycle(n.cfg.LinkDelay) + 3 // want "shardsafety: Lookahead hardcodes 3"
}

func (n *Net) writeHazard(ch *state) {
	n.engine.At(5, func(at sim.Cycle) { // want "shardsafety: scheduled closure writes through captured .ch."
		ch.armed = false
	})
}

func (n *Net) methodHazard(next *state) {
	delay := sim.Cycle(n.cfg.LinkDelay)
	n.engine.At(delay, func(at sim.Cycle) { // want "shardsafety: scheduled closure calls a state-mutating method on captured .next."
		next.push(1)
	})
}

func (n *Net) deleteHazard(ns *state, slot int64) {
	n.engine.After(9, func(sim.Cycle) { // want "shardsafety: scheduled closure deletes through captured .ns."
		delete(ns.slots, slot)
	})
}

// engineAt forwards its closure to the engine: calls to it are
// scheduling calls in disguise and get the same checks.
func (n *Net) engineAt(at sim.Cycle, fn func(now sim.Cycle)) {
	n.engine.At(at, fn)
}

func (n *Net) wrapperHazard(ns *state) {
	n.engineAt(4, func(sim.Cycle) { // want "shardsafety: scheduled closure writes through captured .ns."
		ns.armed = true
	})
}

// receiverOK mutates only the scheduling component's own state: the
// component schedules on itself, which stays on its shard.
func (n *Net) receiverOK() {
	n.engine.At(2, func(at sim.Cycle) {
		n.count++
	})
}

// readOK only reads through the capture and calls a non-mutating
// method: no finding.
func (n *Net) readOK(ns *state) {
	n.engine.At(2, func(sim.Cycle) {
		n.last = ns.peek()
	})
}

// guardedOK is the sanctioned local-delivery idiom: an explicit
// Src == Dst comparison proves the event stays on the local node.
func (n *Net) guardedOK(p *noc.Packet, ns *state) {
	if p.Src == p.Dst {
		n.engine.At(2, func(sim.Cycle) {
			ns.armed = true
		})
	}
}

// allowedHazard is suppressed with a justification, like the corona
// arbiter whose channel state is the shared medium itself.
func (n *Net) allowedHazard(ch *state) {
	n.engine.At(7, func(sim.Cycle) { //lint:allow shardsafety shared arbitration state is serialized by the serial engine's global order
		ch.armed = false
	})
}

// routedOK hands the event to the shard-aware router: noc.ScheduleAt
// is the sanctioned path and its closures are not analyzed.
func (n *Net) routedOK(node int, ns *state) {
	noc.ScheduleAt(n.engine, node, 6, func(sim.Cycle) {
		ns.armed = true
	})
}

// proxyHazard schedules through the per-node surface the windowed
// engine hands out (sim.SchedulerFor): the closure rules must follow
// the proxy exactly as they follow the engine.
func (n *Net) proxyHazard(node int, ns *state) {
	sched := sim.SchedulerFor(n.engine, node)
	sched.After(3, func(sim.Cycle) { // want "shardsafety: scheduled closure writes through captured .ns."
		ns.armed = true
	})
}

// proxyReceiverOK mirrors receiverOK through the proxy surface: a
// component scheduling on its own node's proxy mutates only itself.
func (n *Net) proxyReceiverOK(node int) {
	sim.SchedulerFor(n.engine, node).After(2, func(at sim.Cycle) {
		n.count++
	})
}
