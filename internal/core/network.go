package core

import (
	"math"
	"strconv"

	"fsoi/internal/noc"
	"fsoi/internal/obs"
	"fsoi/internal/sim"
)

// CollisionKind classifies data-lane collisions for Figure 10.
type CollisionKind int

const (
	// CollisionRetransmission involves at least one retried packet.
	CollisionRetransmission CollisionKind = iota
	// CollisionWriteback involves an eviction data packet.
	CollisionWriteback
	// CollisionMemory involves a memory-controller packet.
	CollisionMemory
	// CollisionReply is between ordinary data replies.
	CollisionReply
	numCollisionKinds
)

// String names the collision kind.
func (k CollisionKind) String() string {
	switch k {
	case CollisionRetransmission:
		return "retransmission"
	case CollisionWriteback:
		return "writeback"
	case CollisionMemory:
		return "memory"
	default:
		return "reply"
	}
}

// ConfirmFunc is invoked at the sender when the confirmation beam for a
// cleanly received packet arrives (receipt + ConfirmDelay cycles).
type ConfirmFunc func(p *noc.Packet, now sim.Cycle)

// DropFunc is invoked when the network permanently gives up on a packet
// after Config.MaxRetries failed retransmissions. The network holds no
// further reference to the packet once the callback returns.
type DropFunc func(p *noc.Packet, now sim.Cycle)

// BitFunc receives a boolean-subscription update carried on a reserved
// confirmation mini-cycle.
type BitFunc func(src, dst int, tag uint64, value bool, now sim.Cycle)

// transmission is one attempt-carrying packet instance.
//
// Ownership transfers with the packet: between transmit and resolution
// the destination node owns the transmission exclusively; a failed
// attempt is handed back to the source node (a scheduled event on the
// source's shard) before the source touches it again. No two nodes ever
// hold it in the same cycle window.
type transmission struct {
	pkt          *noc.Packet
	src          int
	attempt      int       // 0 on the first transmission
	firstSlotEnd sim.Cycle // end of the first attempted slot
	readyCycle   sim.Cycle // when it became eligible to transmit
	steerExtra   int       // phase-array retarget penalty this attempt
	degradeExtra int       // VCSEL-failure serialization penalty this attempt
	ber          float64   // per-bit error probability, sampled at launch
	winner       bool      // selected by a retransmission hint
	retrySlot    int64     // earliest slot index for the next attempt
	delivered    bool      // payload landed but the confirmation was lost
}

// nodeState is the per-node transmit machinery. Everything in here is
// touched only from events and ticks executing on the owning node, so a
// partitioned engine never sees two shards in the same nodeState.
type nodeState struct {
	queue     [numLanes][]*noc.Packet
	notBefore map[*noc.Packet]sim.Cycle // scheduling holds (spacing, writeback split)
	retries   [numLanes][]*transmission
	lastDst   [numLanes]int

	// arr accumulates the transmissions that landed on each of this
	// node's receivers during the slot ending now; the node's own tick
	// resolves and clears each group at the slot boundary.
	arr [numLanes][][]*transmission

	// Receiver-side reservation table for the data lane: slot index ->
	// reservations (receiver scheduling + writeback split).
	reserved map[int64]int

	// Outstanding requests expecting data replies, per responder, used
	// to estimate reply timing and to generate collision hints.
	expecting map[int][]sim.Cycle
	replyEWMA float64
}

// Stats carries FSOI-specific measurements beyond noc.LatencyStats.
type Stats struct {
	Attempts       [numLanes]int64 // transmissions including retries
	Collided       [numLanes]int64 // attempts that ended in a collision
	Collisions     [numLanes]int64 // collision events (>= 2 attempts each)
	Delivered      [numLanes]int64
	SlotsObserved  [numLanes]int64 // node-slots elapsed
	DataByKind     [numCollisionKinds]int64
	HintsIssued    int64
	HintsCorrect   int64
	HintsWrong     int64 // wrong node believed it won
	ConfirmBits    int64 // boolean-subscription mini-cycle uses
	ConfirmSignals int64 // packet confirmations sent
	BitErrors      int64
	Dropped        [numLanes]int64 // packets abandoned after MaxRetries failed attempts
	ScheduledHolds int64           // packets delayed by receiver scheduling / wb split

	// Fault-injection counters (all zero unless a FaultModel is attached).
	HeaderCorruptions     int64 // bit errors in the PID/~PID header: misdetected collisions
	PayloadCRCErrors      int64 // bit errors caught by the payload CRC
	ConfirmDrops          int64 // confirmation beams lost
	TimeoutRetransmits    int64 // retransmissions launched by the confirmation timeout
	DuplicateDeliveries   int64 // re-received packets discarded at the receiver
	DegradedTransmissions int64 // attempts stretched by failed VCSELs

	// Adversarial-traffic counters (zero unless an AdversaryModel is
	// attached) and backoff-depth metering (always on — the detection
	// layer's baseline needs it on honest runs too).
	SpoofedHeaders  int64           // arrivals misdetected as collisions by forged PID headers
	StarvedConfirms int64           // confirmation beams suppressed by a starver
	MaxBackoffDepth [numLanes]int64 // deepest attempt count any transmission reached
}

// add folds o into s; integer addition is exact and commutative, and the
// depth fields merge by max (also commutative), so the per-node tallies
// aggregate identically at every shard and worker count.
func (s *Stats) add(o *Stats) {
	for l := 0; l < int(numLanes); l++ {
		s.Attempts[l] += o.Attempts[l]
		s.Collided[l] += o.Collided[l]
		s.Collisions[l] += o.Collisions[l]
		s.Delivered[l] += o.Delivered[l]
		s.SlotsObserved[l] += o.SlotsObserved[l]
		s.Dropped[l] += o.Dropped[l]
		if o.MaxBackoffDepth[l] > s.MaxBackoffDepth[l] {
			s.MaxBackoffDepth[l] = o.MaxBackoffDepth[l]
		}
	}
	for k := range s.DataByKind {
		s.DataByKind[k] += o.DataByKind[k]
	}
	s.HintsIssued += o.HintsIssued
	s.HintsCorrect += o.HintsCorrect
	s.HintsWrong += o.HintsWrong
	s.ConfirmBits += o.ConfirmBits
	s.ConfirmSignals += o.ConfirmSignals
	s.BitErrors += o.BitErrors
	s.ScheduledHolds += o.ScheduledHolds
	s.HeaderCorruptions += o.HeaderCorruptions
	s.PayloadCRCErrors += o.PayloadCRCErrors
	s.ConfirmDrops += o.ConfirmDrops
	s.TimeoutRetransmits += o.TimeoutRetransmits
	s.DuplicateDeliveries += o.DuplicateDeliveries
	s.DegradedTransmissions += o.DegradedTransmissions
	s.SpoofedHeaders += o.SpoofedHeaders
	s.StarvedConfirms += o.StarvedConfirms
}

// TransmissionProbability reports attempts per node per slot for a lane,
// the x-axis of Figure 9.
func (s *Stats) TransmissionProbability(l Lane) float64 {
	if s.SlotsObserved[l] == 0 {
		return 0
	}
	return float64(s.Attempts[l]) / float64(s.SlotsObserved[l])
}

// CollisionRate reports the fraction of attempts that collided, the
// y-axis of Figure 9.
func (s *Stats) CollisionRate(l Lane) float64 {
	if s.Attempts[l] == 0 {
		return 0
	}
	return float64(s.Collided[l]) / float64(s.Attempts[l])
}

// RetransmissionRate reports extra attempts per delivered packet on a
// lane — the fault sweep's degradation metric: 0 when every packet lands
// first try, 1 when packets need two attempts on average.
func (s *Stats) RetransmissionRate(l Lane) float64 {
	if s.Delivered[l] == 0 {
		return 0
	}
	return float64(s.Attempts[l]-s.Delivered[l]) / float64(s.Delivered[l])
}

// Network is the FSOI interconnect.
//
// Every piece of mutable state is owned by exactly one node: per-node
// transmit machinery (nodeState), per-node RNG streams, per-node stats
// and latency accumulators, and a per-node slice of the shared
// confirmation-lane bookkeeping. Code executing for node i — its tick,
// or an event scheduled onto it — touches only node i's slices, so the
// network runs unchanged on the serial engine and the windowed parallel
// engine.
type Network struct {
	cfg       Config
	engine    sim.Scheduler   // setup and end-of-run reporting only
	scheds    []sim.Scheduler // per-node view of the engine (shard proxies when windowed)
	nrng      []*sim.RNG      // per-node random streams, derived in node order
	deliverFn noc.DeliveryFunc
	confirmFn ConfirmFunc
	bitFn     BitFunc
	dropFn    DropFunc
	obs       *obs.Sharded // nil unless lifecycle tracing is on
	lat       []noc.LatencyStats
	stats     []Stats
	nodes     []*nodeState
	conf      *confLane
	ber       float64        // per-bit error probability on the signaling chain
	fault     FaultModel     // nil unless an injector is attached
	adv       AdversaryModel // nil unless an attack roster is attached
	linkObs   []LinkObserver // per-node contention sinks; nil unless tracking is on
}

// New builds an FSOI network over the engine; it panics on an invalid
// configuration (configs are produced by code, not user input). When the
// engine partitions nodes (sim.NodeScheduler), every per-node event the
// network schedules goes through that node's own scheduler view.
func New(cfg Config, engine sim.Scheduler, rng *sim.RNG) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{
		cfg:    cfg,
		engine: engine,
		conf:   newConfLane(cfg.Nodes, cfg.BitsPerCycle),
		ber:    1e-10,
	}
	base := rng.NewStream("fsoi")
	n.scheds = make([]sim.Scheduler, cfg.Nodes)
	n.nrng = make([]*sim.RNG, cfg.Nodes)
	n.stats = make([]Stats, cfg.Nodes)
	n.lat = make([]noc.LatencyStats, cfg.Nodes)
	n.nodes = make([]*nodeState, cfg.Nodes)
	for i := range n.nodes {
		n.scheds[i] = sim.SchedulerFor(engine, i)
		n.nrng[i] = base.NewStream("node-" + strconv.Itoa(i))
		ns := &nodeState{
			notBefore: make(map[*noc.Packet]sim.Cycle),
			reserved:  make(map[int64]int),
			expecting: make(map[int][]sim.Cycle),
			replyEWMA: 30,
		}
		for l := range ns.lastDst {
			ns.lastDst[l] = -1
			ns.arr[l] = make([][]*transmission, cfg.Receivers)
		}
		n.nodes[i] = ns
	}
	return n
}

// SetBitErrorRate overrides the default 1e-10 signaling BER; §4.3.1
// argues the collision mechanism lets BER relax to ~1e-5 with no
// tangible performance impact, which the failure-injection tests verify.
func (n *Network) SetBitErrorRate(ber float64) { n.ber = ber }

// Name identifies the configuration.
func (n *Network) Name() string { return "fsoi" }

// LatencyStats merges the per-node latency accumulators, in node order,
// into a fresh aggregate. Call it after (or between) runs, not once and
// cached.
func (n *Network) LatencyStats() *noc.LatencyStats {
	out := &noc.LatencyStats{}
	for i := range n.lat {
		out.Merge(&n.lat[i])
	}
	return out
}

// Lookahead declares FSOI's conservative cross-shard window for the
// windowed engine: the fixed confirmation delay (+2 cycles in the
// paper). Every cross-node event the network schedules — a slot arrival
// (one slot length, ≥ ConfirmDelay at paper widths), a failure handback
// or confirmation (exactly ConfirmDelay) — lands at least this far
// ahead.
func (n *Network) Lookahead() sim.Cycle {
	la := sim.Cycle(n.cfg.ConfirmDelay)
	// A transmission's arrival handoff has exactly one slot of slack, so
	// a lane with slots shorter than the confirmation delay (an unusual
	// but legal lane-width choice) caps the window.
	if s := sim.Cycle(n.cfg.SlotCycles(LaneMeta)); s < la {
		la = s
	}
	if s := sim.Cycle(n.cfg.SlotCycles(LaneData)); s < la {
		la = s
	}
	return la
}

// Stats merges the per-node counters, in node order, into a fresh
// aggregate.
func (n *Network) Stats() *Stats {
	out := &Stats{}
	for i := range n.stats {
		out.add(&n.stats[i])
	}
	return out
}

// SetDelivery installs the destination callback.
func (n *Network) SetDelivery(fn noc.DeliveryFunc) { n.deliverFn = fn }

// SetConfirmDelivery installs the sender-side confirmation callback used
// for point-to-point ordering and ack elision.
func (n *Network) SetConfirmDelivery(fn ConfirmFunc) { n.confirmFn = fn }

// SetBitDelivery installs the boolean-subscription callback.
func (n *Network) SetBitDelivery(fn BitFunc) { n.bitFn = fn }

// SetDropDelivery installs the terminal-drop callback (see
// Config.MaxRetries). Without one, dropped packets simply vanish from
// the network's bookkeeping (the Dropped counters still tally them).
func (n *Network) SetDropDelivery(fn DropFunc) { n.dropFn = fn }

// SetObserver attaches a per-node family of lifecycle-event recorders.
// Passing nil detaches it; with no recorder attached every emission site
// is a single nil check and the transmit path allocates nothing extra.
func (n *Network) SetObserver(r *obs.Sharded) { n.obs = r }

// observe emits one lifecycle event into the recorder owned by the node
// whose context is executing (source for launch/backoff/drop events,
// destination for resolution events).
func (n *Network) observe(node int, kind obs.Kind, tx *transmission, l Lane, at sim.Cycle, aux int64) {
	n.obs.For(node).Emit(obs.Event{
		At: at, Kind: kind, ID: tx.pkt.ID, Aux: aux,
		Src: int32(tx.src), Dst: int32(tx.pkt.Dst),
		Attempt: int32(tx.attempt), Class: uint8(tx.pkt.Type), Lane: int8(l),
	})
}

// SupportsConfirmation reports that this network confirms clean packet
// receipt in hardware, enabling ack elision.
func (n *Network) SupportsConfirmation() bool { return n.cfg.Opt.AckElision }

// SupportsBooleanSubscription reports mini-cycle boolean updates.
func (n *Network) SupportsBooleanSubscription() bool {
	return n.cfg.Opt.BooleanSubscription
}

// laneFor classifies a packet onto its lane.
func laneFor(p *noc.Packet) Lane {
	if p.Type == noc.Data {
		return LaneData
	}
	return LaneMeta
}

// Send enqueues a packet on its lane's outgoing queue. It must be called
// from the source node's context (or at setup, before the engine runs).
func (n *Network) Send(p *noc.Packet) bool {
	sched := n.scheds[p.Src]
	if p.Src == p.Dst {
		// Same-node traffic short-circuits through the local port in one
		// cycle; the optical layer is never involved, but the sender
		// still sees a (trivially successful) confirmation.
		p.Created = sched.Now()
		p.NetworkDelay = 1
		sched.After(1, func(now sim.Cycle) {
			n.lat[p.Dst].Record(p)
			if n.deliverFn != nil {
				n.deliverFn(p, now)
			}
		})
		sched.After(1+sim.Cycle(n.cfg.ConfirmDelay), func(now sim.Cycle) {
			if n.confirmFn != nil {
				n.confirmFn(p, now)
			}
		})
		return true
	}
	lane := laneFor(p)
	ns := n.nodes[p.Src]
	if len(ns.queue[lane]) >= n.cfg.OutQueue {
		return false
	}
	p.Created = sched.Now()
	n.schedulePacket(ns, p, lane)
	ns.queue[lane] = append(ns.queue[lane], p)
	return true
}

// schedulePacket applies the §5.2 scheduling optimizations, possibly
// recording a not-before cycle for the packet.
func (n *Network) schedulePacket(ns *nodeState, p *noc.Packet, lane Lane) {
	now := n.scheds[p.Src].Now()
	cd := sim.Cycle(n.cfg.ConfirmDelay)
	dataSlot := int64(n.cfg.SlotCycles(LaneData))
	switch {
	case lane == LaneMeta && p.ExpectsDataReply && n.cfg.Opt.ReceiverScheduling:
		// Reserve the most likely reply slot at our own receiver; if it
		// is taken, delay the request until the estimate lands free.
		est := int64(now) + int64(ns.replyEWMA)
		slot := est / dataSlot
		hold := sim.Cycle(0)
		for i := 0; ns.reserved[slot] > 0 && i < 4; i++ {
			slot++
			hold += sim.Cycle(dataSlot)
		}
		ns.reserved[slot]++
		n.expireReservation(p.Src, ns, slot, now)
		if hold > 0 {
			ns.notBefore[p] = now + hold
			n.stats[p.Src].ScheduledHolds++
		}
		ns.expecting[p.Dst] = append(ns.expecting[p.Dst], now)
	case lane == LaneData && p.IsWriteback && n.cfg.Opt.WritebackSplit:
		// Split transaction: a meta-sized announcement rides to the home
		// node (the 2-cycle handshake), the home node picks a free slot
		// at its receiver, and the grant rides back; the writeback itself
		// is held until the granted slot opens. Both legs are ordinary
		// node-to-node events, so the reservation is made and expired
		// entirely in the home node's context.
		ns.notBefore[p] = now + 2*cd // provisional: released by the grant
		n.stats[p.Src].ScheduledHolds++
		src := p.Src
		noc.ScheduleAt(n.scheds[src], p.Dst, now+cd, func(at sim.Cycle) {
			home := n.nodes[p.Dst]
			slot := (int64(at)+int64(cd))/dataSlot + 1
			for i := 0; home.reserved[slot] > 0 && i < 4; i++ {
				slot++
			}
			home.reserved[slot]++
			n.expireReservation(p.Dst, home, slot, at)
			noc.ScheduleAt(n.scheds[p.Dst], src, at+cd, func(sim.Cycle) {
				n.nodes[src].notBefore[p] = sim.Cycle(slot * dataSlot)
			})
		})
	}
}

// expireReservation drops a reservation shortly after its slot passes.
// It must be called from the context of the node owning ns — the
// writeback split reserves at the *home* node — so the expiry fires on
// the shard owning that node, not on whichever shard ran the sender.
func (n *Network) expireReservation(node int, ns *nodeState, slot int64, now sim.Cycle) {
	dataSlot := int64(n.cfg.SlotCycles(LaneData))
	end := sim.Cycle((slot + 2) * dataSlot)
	if end <= now {
		end = now + 1
	}
	noc.ScheduleAt(n.scheds[node], node, end, func(sim.Cycle) {
		if ns.reserved[slot] > 0 {
			ns.reserved[slot]--
			if ns.reserved[slot] == 0 {
				delete(ns.reserved, slot)
			}
		}
	})
}

// SendConfirmBit transmits one boolean over a reserved confirmation
// mini-cycle (§5.1): the sender's confirmation lane carries the bit at
// the subscriber's reserved offset, arriving after the confirmation
// delay plus any mini-cycle queueing (essentially never, at 12 minis per
// cycle — but measured, not assumed). It must be called from src's
// context.
func (n *Network) SendConfirmBit(src, dst int, tag uint64, value bool) {
	n.stats[src].ConfirmBits++
	n.conf.reserve(src, dst)
	now := n.scheds[src].Now()
	extra := n.conf.sendDelay(src, now, 1)
	noc.ScheduleAt(n.scheds[src], dst, now+sim.Cycle(n.cfg.ConfirmDelay)+extra, func(now sim.Cycle) {
		if n.bitFn != nil {
			n.bitFn(src, dst, tag, value, now)
		}
	})
}

// ConfirmationUtilization reports the confirmation lane's mini-cycle
// occupancy so far.
func (n *Network) ConfirmationUtilization() float64 {
	return n.conf.Utilization(n.engine.Now(), n.cfg.Nodes)
}

// Tick advances the whole network one cycle on a single-threaded engine
// by ticking every node in node order. Partitioned engines register
// TickNode per node instead and never call this.
func (n *Network) Tick(now sim.Cycle) {
	for id := range n.nodes {
		n.TickNode(id, now)
	}
}

// TickNode advances one node one cycle. At each lane's slot boundary the
// node first resolves the slot that just ended on each of its receivers
// (delivering clean transmissions, adjudicating collisions, handing
// failures back to their senders), then its lane serializer picks the
// next transmission for the opening slot. Only state owned by node id is
// touched.
func (n *Network) TickNode(id int, now sim.Cycle) {
	ns := n.nodes[id]
	for l := Lane(0); l < numLanes; l++ {
		slotLen := int64(n.cfg.SlotCycles(l))
		if int64(now)%slotLen != 0 {
			continue
		}
		slot := int64(now) / slotLen
		for rcv := range ns.arr[l] {
			group := ns.arr[l][rcv]
			if len(group) == 0 {
				continue
			}
			// Arrivals are appended only in the event phase, so nothing
			// grows this bucket while the group resolves.
			ns.arr[l][rcv] = ns.arr[l][rcv][:0]
			n.resolveGroup(id, l, slot-1, group, now)
		}
		n.stats[id].SlotsObserved[l]++
		n.startSlot(id, ns, l, slot, now)
	}
}

// startSlot picks at most one transmission for node id on lane l in the
// slot beginning now: a hint winner first, then due retries, then the
// first eligible queued packet.
func (n *Network) startSlot(id int, ns *nodeState, l Lane, slot int64, now sim.Cycle) {
	// Hint winners get the slot unconditionally.
	for i, tx := range ns.retries[l] {
		if tx.winner && tx.retrySlot <= slot {
			ns.retries[l] = append(ns.retries[l][:i], ns.retries[l][i+1:]...)
			n.transmit(id, ns, tx, l, slot, now)
			return
		}
	}
	// Earliest-due retry next.
	best := -1
	for i, tx := range ns.retries[l] {
		if tx.retrySlot <= slot && (best < 0 || tx.retrySlot < ns.retries[l][best].retrySlot) {
			best = i
		}
	}
	if best >= 0 {
		tx := ns.retries[l][best]
		ns.retries[l] = append(ns.retries[l][:best], ns.retries[l][best+1:]...)
		n.transmit(id, ns, tx, l, slot, now)
		return
	}
	// Fresh packet from the queue, respecting scheduling holds. A held
	// packet blocks only packets to the same destination, preserving
	// point-to-point order.
	blocked := make(map[int]bool)
	for i, p := range ns.queue[l] {
		nb, held := ns.notBefore[p]
		if held && nb > now {
			blocked[p.Dst] = true
			continue
		}
		if blocked[p.Dst] {
			continue
		}
		ns.queue[l] = append(ns.queue[l][:i], ns.queue[l][i+1:]...)
		delete(ns.notBefore, p)
		tx := &transmission{pkt: p, src: id, readyCycle: now}
		// Split the wait between intentional scheduling (the hold we
		// installed) and plain queuing.
		wait := int64(now - p.Created)
		if held {
			hold := int64(nb - p.Created)
			if hold > wait {
				hold = wait
			}
			p.SchedulingDelay = hold
			p.QueuingDelay = wait - hold
		} else {
			p.QueuingDelay = wait
		}
		n.transmit(id, ns, tx, l, slot, now)
		return
	}
}

// transmit launches one attempt: the beam lands on the destination's
// receiver at the end of the slot, where the destination's own tick
// resolves whatever accumulated. The per-bit error probability is
// sampled here, in the sender's context — the fault model's margin and
// thermal state belong to the sender — and carried on the transmission.
func (n *Network) transmit(id int, ns *nodeState, tx *transmission, l Lane, slot int64, now sim.Cycle) {
	p := tx.pkt
	tx.steerExtra = 0
	if n.cfg.PhaseArray && ns.lastDst[l] != p.Dst {
		tx.steerExtra = n.cfg.PhaseSetup
		ns.lastDst[l] = p.Dst
	}
	tx.degradeExtra = 0
	if n.fault != nil {
		if ext := n.fault.SlotExtension(id, l); ext > 0 {
			tx.degradeExtra = ext
			n.stats[id].DegradedTransmissions++
		}
	}
	tx.ber = n.ber
	if n.fault != nil {
		tx.ber = n.fault.BitErrorRate(id, now)
	}
	rcv := id % n.cfg.Receivers
	n.stats[id].Attempts[l]++
	if n.obs != nil {
		kind := obs.KindTxStart
		if tx.attempt > 0 {
			kind = obs.KindRetransmit
		}
		n.observe(id, kind, tx, l, now, slot)
	}
	// The arrival belongs to the destination node's shard; a slot is at
	// least ConfirmDelay (2) cycles long, so the handoff clears the
	// lookahead window.
	slotEnd := sim.Cycle((slot + 1) * int64(n.cfg.SlotCycles(l)))
	dst := p.Dst
	noc.ScheduleAt(n.scheds[id], dst, slotEnd, func(sim.Cycle) {
		d := n.nodes[dst]
		d.arr[l][rcv] = append(d.arr[l][rcv], tx)
	})
}

// resolveGroup adjudicates one receiver slot at its end, in the
// destination node's context: a single uncorrupted transmission is
// delivered and confirmed; anything else collides and every participant
// is handed back to its sender.
func (n *Network) resolveGroup(dst int, l Lane, slot int64, group []*transmission, now sim.Cycle) {
	st := &n.stats[dst]
	if len(group) == 1 {
		tx := group[0]
		// Independent bit errors corrupt the packet with probability
		// ~bits*BER; an error looks exactly like a collision to the
		// sender (no confirmation) and is retried the same way. The
		// probability was sampled at launch (tx.ber); the corruption draw
		// happens here, on the receiver's stream.
		if tx.ber > 0 && n.nrng[dst].Bool(1-math.Pow(1-tx.ber, float64(tx.pkt.Type.Bits()))) {
			st.BitErrors++
			if n.fault != nil {
				// Locate the corruption: header errors break the PID/~PID
				// match and register as a (single-party) collision — the
				// paper's own detection path; payload errors pass the
				// header check and are caught by the modelled CRC, which
				// triggers the same NACK-free retransmission.
				headerFrac := float64(pidHeaderBits) / float64(tx.pkt.Type.Bits())
				if n.nrng[dst].Bool(headerFrac) {
					st.HeaderCorruptions++
					st.Collisions[l]++
					st.Collided[l]++
					if l == LaneData {
						st.DataByKind[classify(group)]++
					}
				} else {
					st.PayloadCRCErrors++
				}
			}
			if n.obs != nil {
				n.observe(dst, obs.KindCollision, tx, l, now, slot)
			}
			if n.linkObs != nil {
				n.linkObs[dst].NoteCollision(tx.src, dst)
			}
			tx.attempt++
			tx.pkt.Retries++
			if tx.firstSlotEnd == 0 {
				tx.firstSlotEnd = now
			}
			n.failBack(dst, tx, l, slot, now, false)
			return
		}
		// A spoofer's arrival carries a forged PID/~PID header: the match
		// fails and the receiver misdetects a collision — the packet is
		// not delivered and the sender retries into an ever-deeper backoff
		// window, burning the victim's slots each time (§4.3.1's detection
		// mechanism turned against itself). The draw runs on the
		// receiver's stream, in the receiver's context.
		if n.adv != nil && n.adv.SpoofedHeader(tx.src, now, n.nrng[dst]) {
			st.SpoofedHeaders++
			st.Collisions[l]++
			st.Collided[l]++
			if l == LaneData {
				st.DataByKind[classify(group)]++
			}
			if n.obs != nil {
				n.observe(dst, obs.KindCollision, tx, l, now, slot)
			}
			if n.linkObs != nil {
				n.linkObs[dst].NoteCollision(tx.src, dst)
			}
			tx.attempt++
			tx.pkt.Retries++
			if tx.firstSlotEnd == 0 {
				tx.firstSlotEnd = now
			}
			n.failBack(dst, tx, l, slot, now, false)
			return
		}
		n.deliverClean(dst, tx, l, slot, now)
		return
	}
	// Collision: the receiver sees the OR of the beams; PID/~PID headers
	// disagree, so everyone involved must retry.
	st.Collisions[l]++
	st.Collided[l] += int64(len(group))
	if l == LaneData {
		st.DataByKind[classify(group)]++
	}
	winnerPicked := false
	if l == LaneData && n.cfg.Opt.RetransmitHints {
		winnerPicked = n.issueHint(dst, group)
	}
	for _, tx := range group {
		if n.obs != nil {
			n.observe(dst, obs.KindCollision, tx, l, now, slot)
		}
		if n.linkObs != nil {
			n.linkObs[dst].NoteCollision(tx.src, dst)
		}
		tx.attempt++
		tx.pkt.Retries++
		if tx.firstSlotEnd == 0 {
			tx.firstSlotEnd = now
		}
		n.failBack(dst, tx, l, slot, now, winnerPicked && tx.winner)
	}
}

// classify maps a data-lane collision to its Figure 10 kind.
func classify(group []*transmission) CollisionKind {
	anyRetry, anyWB, anyMem := false, false, false
	for _, tx := range group {
		if tx.attempt > 0 {
			anyRetry = true
		}
		if tx.pkt.IsWriteback {
			anyWB = true
		}
		if tx.pkt.IsMemory {
			anyMem = true
		}
	}
	switch {
	case anyRetry:
		return CollisionRetransmission
	case anyWB:
		return CollisionWriteback
	case anyMem:
		return CollisionMemory
	default:
		return CollisionReply
	}
}

// issueHint has the colliding receiver guess one sender from the
// corrupted PID pattern and its outstanding-reply knowledge, and beam a
// winner notification through the confirmation laser. It reports whether
// a true participant was selected.
func (n *Network) issueHint(dst int, group []*transmission) bool {
	st := &n.stats[dst]
	rng := n.nrng[dst]
	st.HintsIssued++
	if !rng.Bool(n.cfg.HintAccuracy) {
		// Mis-identification: usually harmless (a node not transmitting
		// ignores the hint), occasionally a wrong node believes it won
		// and retries immediately, which we model as no winner plus a
		// chance of an extra immediate contender.
		if rng.Bool(n.cfg.WrongWinner / (1 - n.cfg.HintAccuracy)) {
			st.HintsWrong++
		}
		return false
	}
	st.HintsCorrect++
	// Prefer the longest-suffering contender (the receiver knows who has
	// been retrying at it), breaking ties randomly so no sender starves.
	pick := group[rng.Intn(len(group))]
	for _, tx := range group {
		if tx.attempt > pick.attempt {
			pick = tx
		}
	}
	pick.winner = true
	return true
}

// failBack returns a failed transmission to its sender: physically, the
// sender learns of the failure when no confirmation arrives, slot end +
// ConfirmDelay — which is exactly the engine's lookahead, so the
// handback is a legal cross-shard event. The backoff draw then runs in
// the sender's context, on the sender's stream.
func (n *Network) failBack(from int, tx *transmission, l Lane, slot int64, now sim.Cycle, isWinner bool) {
	noc.ScheduleAt(n.scheds[from], tx.src, now+sim.Cycle(n.cfg.ConfirmDelay), func(at sim.Cycle) {
		n.backoff(tx, l, slot, at, isWinner)
	})
}

// backoff schedules a retransmission, in the sender's context. The
// sender learns of the failure at slot end + ConfirmDelay, by which time
// the next slot's launch has passed: a hint winner goes in the second
// slot after the collision, everyone else draws from the exponential
// window starting one later. A packet that has already burned MaxRetries
// attempts (its window saturated at MaxBackoffSlots long ago) is dropped
// instead — unless its payload actually landed and only the confirmation
// is outstanding, in which case dropping would desynchronize sender and
// receiver.
func (n *Network) backoff(tx *transmission, l Lane, slot int64, now sim.Cycle, isWinner bool) {
	ns := n.nodes[tx.src]
	if n.cfg.MaxRetries > 0 && tx.attempt > n.cfg.MaxRetries && !tx.delivered {
		n.drop(tx, l, now)
		return
	}
	// Backoff-depth metering, in the sender's context: the deepest
	// attempt count any transmission reaches is the detection layer's
	// strongest per-link anomaly signal under adversarial load.
	if d := int64(tx.attempt); d > n.stats[tx.src].MaxBackoffDepth[l] {
		n.stats[tx.src].MaxBackoffDepth[l] = d
	}
	if n.linkObs != nil {
		n.linkObs[tx.src].NoteBackoff(tx.src, tx.pkt.Dst, tx.attempt)
	}
	if isWinner {
		tx.retrySlot = slot + 2
		ns.retries[l] = append(ns.retries[l], tx)
		if n.obs != nil {
			n.observe(tx.src, obs.KindBackoff, tx, l, now, tx.retrySlot)
		}
		return
	}
	tx.winner = false
	w := n.cfg.WindowW * math.Pow(n.cfg.BackoffB, float64(tx.attempt-1))
	if w < 1 {
		w = 1
	}
	// Guard rail: past ~60 retries the exponential window would dwarf any
	// useful timescale; saturating it (at MaxBackoffSlots, default 256)
	// keeps worst-case delay bounded without affecting the common case
	// the paper optimizes.
	if cap := n.backoffCap(); w > cap {
		w = cap
	}
	d := int64(math.Ceil(n.nrng[tx.src].Float64() * w))
	if d < 1 {
		d = 1
	}
	base := slot + 2
	if l == LaneData && n.cfg.Opt.RetransmitHints {
		// Losers leave the first reachable slot to the winner.
		base = slot + 3
	}
	tx.retrySlot = base + d - 1
	ns.retries[l] = append(ns.retries[l], tx)
	if n.obs != nil {
		n.observe(tx.src, obs.KindBackoff, tx, l, now, tx.retrySlot)
	}
}

// drop abandons a transmission after retry exhaustion, in the sender's
// context: the terminal lifecycle event fires, the lane's drop counter
// advances, and the DropFunc (if any) takes ownership of the packet.
func (n *Network) drop(tx *transmission, l Lane, now sim.Cycle) {
	n.stats[tx.src].Dropped[l]++
	if n.obs != nil {
		n.observe(tx.src, obs.KindDrop, tx, l, now, int64(tx.pkt.Retries))
	}
	if n.dropFn != nil {
		n.dropFn(tx.pkt, now)
	}
}

// deliver completes a delivery in the destination's context: latency
// accounting, the reply-timing estimate, and the upward callback.
func (n *Network) deliver(p *noc.Packet, now sim.Cycle) {
	n.lat[p.Dst].Record(p)
	n.noteReplyArrival(p, now)
	if n.deliverFn != nil {
		n.deliverFn(p, now)
	}
}

// deliverClean completes a successful transmission: payload delivery at
// slot end (plus any steering or degradation pipeline), confirmation at
// +ConfirmDelay. Under fault injection a re-received packet (whose
// earlier confirmation was lost) is recognized by its ID and discarded —
// only the confirmation is re-sent — and a freshly lost confirmation
// parks the sender on the confirmation-timeout retransmission path.
func (n *Network) deliverClean(dst int, tx *transmission, l Lane, slot int64, now sim.Cycle) {
	p := tx.pkt
	st := &n.stats[dst]
	extra := tx.steerExtra + tx.degradeExtra
	deliverAt := now + sim.Cycle(extra)
	if tx.delivered {
		st.DuplicateDeliveries++
	} else {
		slotLen := int64(n.cfg.SlotCycles(l))
		p.NetworkDelay = slotLen + int64(extra)
		if tx.firstSlotEnd != 0 {
			p.ResolutionDelay = int64(now - tx.firstSlotEnd)
		}
		st.Delivered[l]++
		if extra == 0 {
			// Resolution already runs in the destination's tick; with no
			// pipeline extra the delivery lands this very cycle, so it
			// must run inline — an event at `now` would slip a cycle.
			n.deliver(p, now)
		} else {
			noc.ScheduleAt(n.scheds[dst], p.Dst, deliverAt, func(at sim.Cycle) {
				n.deliver(p, at)
			})
		}
	}
	lost := n.fault != nil && n.fault.DropConfirm(tx.src, p.Dst, now)
	if !lost && n.adv != nil && n.adv.StarveConfirm(p.Dst, now, n.nrng[dst]) {
		// A starver suppresses the victim's confirmation beam; to the
		// sender this is indistinguishable from a physical confirm loss.
		lost = true
		st.StarvedConfirms++
	}
	if lost {
		// The payload landed but the sender will never hear so: after the
		// confirmation timeout it retransmits; the receiver discards the
		// duplicate above and re-confirms. The requeue rides the same
		// +ConfirmDelay handback as a failure.
		st.ConfirmDrops++
		st.TimeoutRetransmits++
		tx.delivered = true
		tx.attempt++
		p.Retries++
		tx.winner = false
		tx.retrySlot = slot + n.confirmTimeoutSlots()
		if n.obs != nil {
			n.observe(dst, obs.KindConfirmDrop, tx, l, now, tx.retrySlot)
		}
		src := tx.src
		noc.ScheduleAt(n.scheds[dst], src, now+sim.Cycle(n.cfg.ConfirmDelay), func(sim.Cycle) {
			n.nodes[src].retries[l] = append(n.nodes[src].retries[l], tx)
		})
		return
	}
	st.ConfirmSignals++
	// The receipt confirmation occupies the receiver node's confirmation
	// lane; its header-sized payload is a handful of mini-cycles.
	confExtra := n.conf.sendDelay(p.Dst, deliverAt, 4)
	// The confirmation informs the sender, at least ConfirmDelay ahead:
	// the handoff back to the source's shard clears the window exactly.
	noc.ScheduleAt(n.scheds[dst], p.Src, deliverAt+sim.Cycle(n.cfg.ConfirmDelay)+confExtra, func(at sim.Cycle) {
		if n.confirmFn != nil {
			n.confirmFn(p, at)
		}
	})
}

// noteReplyArrival updates the requester's reply-latency estimate used by
// receiver scheduling.
func (n *Network) noteReplyArrival(p *noc.Packet, now sim.Cycle) {
	if !p.IsReply {
		return
	}
	ns := n.nodes[p.Dst]
	pend := ns.expecting[p.Src]
	if len(pend) == 0 {
		return
	}
	sent := pend[0]
	ns.expecting[p.Src] = pend[1:]
	obs := float64(now - sent)
	ns.replyEWMA = 0.875*ns.replyEWMA + 0.125*obs
}
