package sim

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle int64

// Ticker is a component that performs work once per cycle. The engine
// calls Tick in registration order, so registration order is part of a
// simulation's deterministic configuration.
type Ticker interface {
	Tick(now Cycle)
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(now Cycle)

// Tick calls f(now).
func (f TickFunc) Tick(now Cycle) { f(now) }

// event is a scheduled callback. Events are stored by value inside the
// queue's slab; the (at, seq) pair is unique per event, so the heap's
// pop order is a total order and identical to the old pointer-heap's.
type event struct {
	at  Cycle
	seq uint64 // tie-breaker: schedule order, for determinism
	fn  func(now Cycle)
}

// eventQueue is a value-typed 4-ary min-heap over (at, seq). One flat
// slab backs the heap; pushes and pops move events within it, so after
// an initial growth phase the cycle loop schedules events with zero
// heap allocations. The wider arity halves tree depth versus a binary
// heap, trading a few extra comparisons per level for fewer cache-line
// hops — a win at the queue depths the slot machinery produces.
type eventQueue struct {
	a []event
}

// less orders the heap by time, then by schedule order.
func (q *eventQueue) less(i, j int) bool {
	if q.a[i].at != q.a[j].at {
		return q.a[i].at < q.a[j].at
	}
	return q.a[i].seq < q.a[j].seq
}

// push inserts an event, sifting it up to its heap position.
func (q *eventQueue) push(e event) {
	q.a = append(q.a, e)
	i := len(q.a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q.less(i, p) {
			break
		}
		q.a[i], q.a[p] = q.a[p], q.a[i]
		i = p
	}
}

// pop removes and returns the minimum event. The vacated slot is zeroed
// so the slab does not pin the callback closure, but the slab's
// capacity is retained for reuse by later pushes.
func (q *eventQueue) pop() event {
	top := q.a[0]
	n := len(q.a) - 1
	q.a[0] = q.a[n]
	q.a[n] = event{}
	q.a = q.a[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for k := c + 1; k < hi; k++ {
			if q.less(k, best) {
				best = k
			}
		}
		if !q.less(best, i) {
			break
		}
		q.a[i], q.a[best] = q.a[best], q.a[i]
		i = best
	}
	return top
}

// Scheduler is the scheduling surface simulation components program
// against: the current cycle, timed callbacks, per-cycle tickers, and
// the stop request. The serial Engine and the windowed engine's
// per-node proxies (internal/sim/shard) implement it, so every
// component runs unchanged under either.
type Scheduler interface {
	Now() Cycle
	At(at Cycle, fn func(now Cycle))
	After(delay Cycle, fn func(now Cycle))
	Register(t Ticker)
	Stop()
	Stopped() bool
}

// Driver extends Scheduler with the run loop and the engine counters —
// the surface the system layer and the command-line tools need to drive
// a whole simulation.
type Driver interface {
	Scheduler
	Step()
	Run(maxCycles Cycle) Cycle
	Pending() int
	EventsFired() uint64
	MaxQueueDepth() int
}

// NodeScheduler is optionally implemented by engines that expose a
// per-node scheduling surface. The parallel windowed engine
// (internal/sim/shard.Windows) returns a proxy whose At/After land on
// the node's home shard and whose Handoff buffers cross-shard work for
// the window barrier; the serial Engine does not implement it — there,
// components keep using the engine directly and ForNode is never asked
// for. Model code that wants to run unchanged on both engines resolves
// its per-node scheduler once at construction:
//
//	sched := sim.SchedulerFor(engine, node)
//
// and schedules everything through it.
type NodeScheduler interface {
	// ForNode returns the scheduling surface for a node's own events.
	// The returned Scheduler must only be used from that node's
	// execution context (its events and ticks).
	ForNode(node int) Scheduler
}

// SchedulerFor resolves the scheduler a node's component should program
// against: the node's proxy when the engine partitions nodes, the
// engine itself otherwise.
func SchedulerFor(engine Scheduler, node int) Scheduler {
	if ns, ok := engine.(NodeScheduler); ok {
		return ns.ForNode(node)
	}
	return engine
}

// Sharder is optionally implemented by scheduling surfaces that
// partition components into node-group shards — the windowed engine's
// node proxies. Networks use it to hand a packet's delivery (or
// confirmation) event to the destination node's shard; on the serial
// engine the assertion fails and callers fall back to a plain At. The
// contract: a cross-shard handoff must land at least the engine's
// declared lookahead in the future, so that shards can advance through
// a lookahead-wide window without observing each other.
type Sharder interface {
	// NodeShard maps a node index to its shard.
	NodeShard(node int) int
	// Handoff schedules fn on the given shard's queue.
	Handoff(shard int, at Cycle, fn func(now Cycle))
}

// Engine drives a cycle-accurate simulation: every registered Ticker runs
// once per cycle, and timed events fire at the start of their cycle,
// before tickers. The zero value is not usable; construct with NewEngine.
type Engine struct {
	now      Cycle
	tickers  []Ticker
	events   eventQueue
	seq      uint64
	stopped  bool
	fired    uint64
	maxDepth int
}

// NewEngine returns an engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Engine is the reference Driver implementation.
var _ Driver = (*Engine)(nil)

// Now reports the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Register adds a ticker. Tickers run in registration order each cycle.
func (e *Engine) Register(t Ticker) {
	e.tickers = append(e.tickers, t)
}

// At schedules fn to run at cycle at. Scheduling in the past (or the
// present cycle after its events have fired) panics: silent reordering
// would corrupt causality.
func (e *Engine) At(at Cycle, fn func(now Cycle)) {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
	if d := len(e.events.a); d > e.maxDepth {
		e.maxDepth = d
	}
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func(now Cycle)) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+delay, fn)
}

// Stop requests that Run return at the end of the current cycle.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Step advances one cycle: fires due events, then ticks all tickers.
func (e *Engine) Step() {
	for len(e.events.a) > 0 && e.events.a[0].at <= e.now {
		ev := e.events.pop()
		e.fired++
		ev.fn(e.now)
	}
	for _, t := range e.tickers {
		t.Tick(e.now)
	}
	e.now++
}

// Run executes up to maxCycles cycles, stopping early if Stop is called.
// It returns the number of cycles actually executed.
func (e *Engine) Run(maxCycles Cycle) Cycle {
	start := e.now
	for e.now-start < maxCycles && !e.stopped {
		e.Step()
	}
	return e.now - start
}

// Pending reports the number of unfired events; useful in tests.
func (e *Engine) Pending() int { return len(e.events.a) }

// EventsFired reports how many scheduled events have executed — a cheap
// built-in profile of how event-heavy a run was (fsoisim -profile
// prints it next to the host-side pprof data).
func (e *Engine) EventsFired() uint64 { return e.fired }

// MaxQueueDepth reports the high-water mark of the event queue, the
// slab capacity a rerun of the same configuration will converge to.
func (e *Engine) MaxQueueDepth() int { return e.maxDepth }
