package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"runtime/metrics"
	"time"

	"fsoi/internal/parallel"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

// setupReps is how many times each run builds the workload's systems
// only to time system.New. A 16-node build takes about 0.1 ms and a
// 256-node one under 2 ms, so a single sample is mostly host noise; the
// median of 101 spreads about 3-12% across runs on a 2-core host.
const setupReps = 101

// options are the run's settings.
type options struct {
	seed   uint64
	budget time.Duration
	trace  bool
}

// rep is one repetition of a workload: every cell built and run once.
type rep struct {
	wall       float64   // host s from the first Run to the last one ending
	cellWall   []float64 // host s in each cell's Run
	nodeCycles float64   // sum over cells of nodes x simulated cycles
	allocMB    float64   // Go heap MB allocated, build and run
	gcCycles   float64
	gcCPU      float64 // host CPU s the garbage collector used
	cpu        float64 // host CPU s available: GOMAXPROCS x wall
	finished   bool
	digest     string
	metrics    []system.Metrics
}

// cpuSamples are the runtime's CPU-time estimates a repetition reads;
// their ratio is the collector's share of the CPU the process had.
var cpuSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPU() (gc, total float64) {
	s := make([]metrics.Sample, len(cpuSamples))
	for i, name := range cpuSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// build times system.New for every cell.
func build(w workloadSpec, seed uint64, mutate func(*system.Config)) ([]*system.System, []workload.App, float64) {
	systems := make([]*system.System, len(w.Cells))
	apps := make([]workload.App, len(w.Cells))
	var setup float64
	for i, c := range w.Cells {
		cfg, app := c.config(seed)
		if mutate != nil {
			mutate(&cfg)
		}
		apps[i] = app
		t := time.Now()
		systems[i] = system.New(cfg)
		setup += time.Since(t).Seconds()
	}
	return systems, apps, setup
}

// setupOnly times one build of the workload and releases it unrun.
func setupOnly(w workloadSpec, seed uint64) float64 {
	runtime.GC()
	systems, _, setup := build(w, seed, nil)
	for _, s := range systems {
		if we := s.WindowEngine(); we != nil {
			we.Close()
		}
	}
	return setup
}

// runRep builds and runs the workload once. The cells run on an
// internal/parallel pool of w.Workers workers; inspect, when set, sees
// each cell's system and metrics right after its Run, on the worker
// that ran it, and must touch only state indexed by the cell.
func runRep(w workloadSpec, seed uint64, mutate func(*system.Config), inspect func(i int, s *system.System, m *system.Metrics)) rep {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := readCPU()
	systems, apps, _ := build(w, seed, mutate)
	r := rep{cellWall: make([]float64, len(systems)), metrics: make([]system.Metrics, len(systems))}
	t0 := time.Now()
	parallel.Do(len(systems), w.Workers, func(i int) {
		t := time.Now()
		r.metrics[i] = systems[i].Run(apps[i])
		r.cellWall[i] = time.Since(t).Seconds()
		if inspect != nil {
			inspect(i, systems[i], &r.metrics[i])
		}
		systems[i], r.metrics[i].Obs = nil, nil
	})
	r.wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := readCPU()
	r.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	r.gcCycles = float64(m1.NumGC - m0.NumGC)
	r.gcCPU, r.cpu = gc1-gc0, cpu1-cpu0

	h := sha256.New()
	r.finished = true
	for _, m := range r.metrics {
		r.finished = r.finished && m.Finished
		r.nodeCycles += float64(m.Nodes) * float64(m.Cycles)
		h.Write([]byte(m.Canonical()))
		h.Write([]byte{0})
	}
	r.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return r
}

// measurement is the untraced part of a run: set-up samples and the
// repetitions that fit in the budget.
type measurement struct {
	setups    []float64
	reps      []rep
	attempted int
	failed    int
}

// check gates a repetition: it must finish, and its canonical listing
// must equal the first repetition's.
func (m *measurement) check(r rep, ref string) {
	m.attempted++
	if !r.finished || r.digest != ref {
		m.failed++
	}
}

// measure builds the workload setupReps times for the set-up metric,
// then repeats it until the budget is spent (at least once).
func measure(w workloadSpec, o options) *measurement {
	m := &measurement{}
	for k := 0; k < setupReps; k++ {
		m.setups = append(m.setups, setupOnly(w, o.seed))
	}
	start := time.Now()
	for len(m.reps) == 0 || time.Since(start) < o.budget {
		r := runRep(w, o.seed, nil, nil)
		ref := r.digest
		if len(m.reps) > 0 {
			ref = m.reps[0].digest
		}
		m.check(r, ref)
		m.reps = append(m.reps, r)
	}
	return m
}

// endToEnd reports the user-visible metrics: medians over repetitions.
func (m *measurement) endToEnd() map[string]metric {
	var wall, perNC, alloc []float64
	for _, r := range m.reps {
		wall = append(wall, r.wall)
		perNC = append(perNC, ratio(r.wall*1e9, r.nodeCycles))
		alloc = append(alloc, r.allocMB)
	}
	return map[string]metric{
		"wall_s":            {median(wall), "s"},
		"ns_per_node_cycle": {median(perNC), "ns"},
		"setup_s":           {median(m.setups), "s"},
		"alloc_mb":          {median(alloc), "MB"},
	}
}

// runOutput is everything a run reports.
type runOutput struct {
	res    result
	digest string
	calib  float64 // host.calib_ns
	spans  *tracer
}

// run measures a workload and, with o.trace, adds the traced repetition.
func run(w workloadSpec, o options) runOutput {
	out := runOutput{calib: calibrate()}
	m := measure(w, o)
	out.digest = m.reps[0].digest
	if o.trace {
		out.spans = newTracer()
		out.res.Metrics = traced(w, o, m, out.spans)
		out.res.Metrics["host.calib_ns"] = metric{out.calib, "ns"}
	} else {
		out.res.Metrics = m.endToEnd()
	}
	out.res.Attempted, out.res.Failed = m.attempted, m.failed
	out.res.Correct = m.attempted > 0 && m.failed == 0
	return out
}
