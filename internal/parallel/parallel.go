// Package parallel is the repository's only sanctioned host
// concurrency: a bounded worker pool that fans independent jobs out to
// goroutines and merges their results **by submission index, never by
// completion order**, so any output assembled from the results is
// byte-identical to a serial run at every worker count.
//
// The contract callers must uphold is share-nothing: each job owns its
// own sim.Engine, its own sim.NewRNG seed tree, and writes only to its
// own result slot. The pool adds no synchronization around job state —
// it cannot make dependent jobs safe, only independent jobs fast.
//
// Every other internal package is forbidden (and lint-enforced:
// fsoilint's detsource analyzer) from using goroutines, select, or the
// sync primitives; concurrency is architecturally confined to this one
// audited package.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
)

// Workers resolves a worker-count setting: values <= 0 mean "one per
// available CPU" (GOMAXPROCS), anything else is taken literally.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// PanicError carries a worker panic back to the caller. When several
// jobs panic in one Do call, the one with the lowest job index wins, so
// the propagated failure is deterministic at any worker count.
type PanicError struct {
	Job   int // submission index of the panicking job
	Value any // the value passed to panic
}

// Error renders the panic for logs and test output.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: job %d panicked: %v", e.Job, e.Value)
}

// Do runs fn(0), fn(1), ..., fn(jobs-1) on at most workers goroutines
// and returns when every job has finished. With workers <= 1 (or fewer
// than two jobs) it degenerates to a plain serial loop on the calling
// goroutine — no goroutines are launched, so -j 1 is not merely
// equivalent to serial execution, it IS serial execution.
//
// Jobs are handed out in submission order. If any job panics, Do
// panics with a *PanicError for the lowest panicking job index after
// all workers have drained; serial mode propagates the original panic
// value unwrapped at the point it occurs, like the loop it replaces.
func Do(jobs, workers int, fn func(job int)) {
	if jobs <= 0 {
		return
	}
	if workers > jobs {
		workers = jobs
	}
	if workers <= 1 {
		for i := 0; i < jobs; i++ {
			fn(i)
		}
		return
	}

	var (
		mu      sync.Mutex
		next    int
		failure *PanicError
	)
	// take hands out the next job index, or -1 when none remain. After
	// a panic has been recorded the remaining jobs are abandoned: the
	// caller is about to unwind, and running more work behind a doomed
	// merge would only waste cycles.
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if failure != nil || next >= jobs {
			return -1
		}
		i := next
		next++
		return i
	}
	record := func(job int, v any) {
		mu.Lock()
		defer mu.Unlock()
		if failure == nil || job < failure.Job {
			failure = &PanicError{Job: job, Value: v}
		}
	}
	runOne := func(job int) {
		defer func() {
			if v := recover(); v != nil {
				record(job, v)
			}
		}()
		fn(job)
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				job := take()
				if job < 0 {
					return
				}
				runOne(job)
			}
		}()
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
}

// Map runs fn over every job index and returns the results in
// submission order: out[i] == fn(i) regardless of which worker computed
// it or when it completed.
func Map[T any](jobs, workers int, fn func(job int) T) []T {
	out := make([]T, jobs)
	Do(jobs, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// Pool is a persistent worker pool for callers that fan out the same
// shape of work many times in a row — the windowed simulation engine's
// window barrier, which parallelizes shards thousands of times per run.
// Do spawns and joins its workers per call, which is fine across
// experiment jobs but far too heavy inside a simulation's window loop;
// Pool keeps its goroutines parked on channels between Run calls.
//
// The determinism contract is Do's: jobs are independent, results merge
// by index in the caller, and NewPool(workers <= 1) runs everything
// serially on the calling goroutine — no goroutines exist at all, so a
// one-worker pool IS serial execution, not an emulation of it.
//
// A Pool is owned by one goroutine: Run calls must not overlap.
type Pool struct {
	workers []chan *poolRun
	done    chan struct{}
}

// poolRun is the shared state of one Run call: a handout counter and
// the lowest-index panic, both guarded like Do's.
type poolRun struct {
	mu      sync.Mutex
	next    int
	jobs    int
	fn      func(job int)
	failure *PanicError
}

// take hands out the next job index, or -1 when none remain (or a
// panic has been recorded and the run is doomed).
func (r *poolRun) take() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failure != nil || r.next >= r.jobs {
		return -1
	}
	i := r.next
	r.next++
	return i
}

// runOne executes one job, converting a panic into the run's failure.
func (r *poolRun) runOne(job int) {
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.failure == nil || job < r.failure.Job {
				r.failure = &PanicError{Job: job, Value: v}
			}
		}
	}()
	r.fn(job)
}

// NewPool parks `workers` goroutines waiting for Run calls. Values <= 1
// return a serial pool with no goroutines. Callers release the
// goroutines with Close when the pool's owner is done.
func NewPool(workers int) *Pool {
	p := &Pool{}
	if workers <= 1 {
		return p
	}
	p.done = make(chan struct{})
	p.workers = make([]chan *poolRun, workers)
	for i := range p.workers {
		c := make(chan *poolRun)
		p.workers[i] = c
		go func() {
			for r := range c {
				for {
					job := r.take()
					if job < 0 {
						break
					}
					r.runOne(job)
				}
				p.done <- struct{}{}
			}
		}()
	}
	return p
}

// Run executes fn(0)..fn(jobs-1) across the pool's workers and returns
// when all have finished — a barrier, exactly like Do, but without
// spawning. A serial pool (or a single job) runs on the calling
// goroutine. Panics propagate as *PanicError for the lowest panicking
// job index; serial mode propagates the original value unwrapped.
func (p *Pool) Run(jobs int, fn func(job int)) {
	if jobs <= 0 {
		return
	}
	if len(p.workers) == 0 || jobs == 1 {
		for i := 0; i < jobs; i++ {
			fn(i)
		}
		return
	}
	r := &poolRun{jobs: jobs, fn: fn}
	for _, c := range p.workers {
		c <- r
	}
	for range p.workers {
		<-p.done
	}
	if r.failure != nil {
		panic(r.failure)
	}
}

// Workers reports the pool's parallelism (1 for a serial pool).
func (p *Pool) Workers() int {
	if len(p.workers) == 0 {
		return 1
	}
	return len(p.workers)
}

// Close releases the pool's goroutines. The pool must not be used
// afterwards. Closing a serial pool is a no-op.
func (p *Pool) Close() {
	for _, c := range p.workers {
		close(c)
	}
	p.workers = nil
}
