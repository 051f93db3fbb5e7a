// Command benchtrend snapshots the repository's performance trajectory.
// Each invocation measures the engine hot path with testing.Benchmark,
// times a representative slice of the experiment registry at bench
// scale, and times one fsoilint pass over the module (load and
// analysis separately), then writes BENCH_<n>.json next to the
// previous snapshots so the ns/op, allocs/op, and wall-clock history
// is machine-readable across PRs.
//
// Usage:
//
//	benchtrend              # writes BENCH_<next>.json in the cwd
//	benchtrend -n 0 -dir .  # explicit index and directory
//	benchtrend -j 4         # experiment timings with 4 workers
//	benchtrend -check BENCH_0.json   # regression gate, writes nothing
//
// Engine numbers are scheduler-independent; experiment wall-clock
// depends on -j and the host, so snapshots record both alongside
// GOMAXPROCS for honest comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"testing"
	"time"

	"fsoi/internal/exp"
	"fsoi/internal/lint"
	"fsoi/internal/parallel"
	"fsoi/internal/sim"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

// engineBench is one testing.Benchmark measurement of the event queue.
type engineBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
}

// expBench is one registry experiment timed at bench scale.
type expBench struct {
	WallSeconds float64            `json:"wall_seconds"`
	Values      map[string]float64 `json:"values"`
}

// lintBench times one in-process fsoilint run over the whole module:
// load (parse + type-check, parallel parse pre-pass) and analysis
// (RunWorkers) separately, since they scale differently with -j.
type lintBench struct {
	LoadSeconds float64 `json:"load_seconds"`
	RunSeconds  float64 `json:"run_seconds"`
	Packages    int     `json:"packages"`
	Findings    int     `json:"findings"`
}

// scaleBench times the 1024-node scale-half run (EXPERIMENTS.md's
// wall-clock table) on the serial engine and on the windowed parallel
// engine over Shards shards. The two engines execute
// legally different schedules — the windowed run lands cross-node
// interactions one lookahead later — so both cycle counts are
// recorded; the speedup is the wall-clock ratio, which depends on
// GOMAXPROCS (a 1-core host can only measure the windowing overhead).
type scaleBench struct {
	Nodes             int     `json:"nodes"`
	App               string  `json:"app"`
	Scale             float64 `json:"scale"`
	Shards            int     `json:"shards"`
	ParWorkers        int     `json:"par_workers"`
	SerialCycles      int64   `json:"serial_cycles"`
	ParCycles         int64   `json:"par_cycles"`
	SerialWallSeconds float64 `json:"serial_wall_seconds"`
	ParWallSeconds    float64 `json:"par_wall_seconds"`
	Speedup           float64 `json:"speedup"`
}

// snapshot is the schema of one BENCH_<n>.json file. Map keys marshal
// sorted, so diffs between snapshots stay stable.
type snapshot struct {
	Index       int                    `json:"index"`
	GoVersion   string                 `json:"go_version"`
	GOMAXPROCS  int                    `json:"gomaxprocs"`
	Workers     int                    `json:"workers"`
	Engine      map[string]engineBench `json:"engine"`
	Experiments map[string]expBench    `json:"experiments"`
	// Lint is absent from snapshots predating the static-analysis
	// suite; omitempty keeps old BENCH_<n>.json files comparable.
	Lint *lintBench `json:"lint,omitempty"`
	// Scale is absent from snapshots predating the windowed parallel
	// engine; omitempty keeps old BENCH_<n>.json files comparable, and
	// -check gates the parallel speedup only when its baseline has it.
	Scale *scaleBench `json:"scale,omitempty"`
}

// benchSchedule mirrors BenchmarkEngineSchedule in internal/sim: a
// rolling window of timed callbacks, the FSOI slot machinery's access
// pattern. The slab-backed queue must hold 0 allocs/op here.
func benchSchedule(b *testing.B) {
	e := sim.NewEngine()
	fn := func(sim.Cycle) {}
	for i := 0; i < 1024; i++ {
		e.After(sim.Cycle(i%17), fn)
	}
	e.Run(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(sim.Cycle(i%7+1), fn)
		if i%64 == 63 {
			e.Run(8)
		}
	}
	b.StopTimer()
	e.Run(16)
}

// benchChurn mirrors BenchmarkEngineChurn: 4096 pending events with
// continuous push/pop churn, where heap arity dominates.
func benchChurn(b *testing.B) {
	e := sim.NewEngine()
	var fn func(now sim.Cycle)
	fn = func(now sim.Cycle) { e.After(sim.Cycle(int(now)%31+1), fn) }
	for i := 0; i < 4096; i++ {
		e.After(sim.Cycle(i%63+1), fn)
	}
	e.Run(64)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(sim.Cycle(b.N))
}

// trackedExperiments is the registry slice each snapshot times: the
// cheap analytic table, one simulation-light figure, and the heavy
// app×network grids that the parallel layer exists to accelerate.
var trackedExperiments = []string{"table1", "fig5", "fig6", "fig8", "faults"}

// nextIndex scans dir for BENCH_<n>.json files and returns max+1 (0 on
// a clean directory).
func nextIndex(dir string) (int, error) {
	re := regexp.MustCompile(`^BENCH_(\d+)\.json$`)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	next := 0
	for _, e := range entries {
		m := re.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err == nil && n+1 > next {
			next = n + 1
		}
	}
	return next, nil
}

func main() {
	dir := flag.String("dir", ".", "directory holding the BENCH_<n>.json history")
	index := flag.Int("n", -1, "snapshot index (-1 = one past the highest existing)")
	jobs := flag.Int("j", 1, "concurrent simulations for experiment timings (0 = one per CPU)")
	check := flag.String("check", "", "regression-gate mode: re-measure the engine hot path, compare against this snapshot, exit 1 on regression; writes nothing")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional ns/op slowdown in -check mode (allocs/op must never grow)")
	noScale := flag.Bool("noscale", false, "skip the 1024-node scale measurement (about two serial minutes of simulation)")
	flag.Parse()

	if *check != "" {
		if err := checkEngine(*check, *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
			os.Exit(1)
		}
		return
	}

	n := *index
	if n < 0 {
		var err error
		if n, err = nextIndex(*dir); err != nil {
			fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
			os.Exit(1)
		}
	}

	snap := snapshot{
		Index:      n,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    parallel.Workers(*jobs),
		Engine: map[string]engineBench{
			"schedule": record(testing.Benchmark(benchSchedule)),
			"churn":    record(testing.Benchmark(benchChurn)),
		},
		Experiments: make(map[string]expBench, len(trackedExperiments)),
	}

	o := exp.BenchOptions()
	o.Workers = snap.Workers
	for _, id := range trackedExperiments {
		runner, ok := exp.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtrend: unknown experiment %q\n", id)
			os.Exit(1)
		}
		start := time.Now()
		res := runner(o)
		snap.Experiments[id] = expBench{
			WallSeconds: time.Since(start).Seconds(),
			Values:      res.Values,
		}
	}

	lb, err := timeLint(snap.Workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: lint timing: %v\n", err)
		os.Exit(1)
	}
	snap.Lint = lb

	if !*noScale {
		snap.Scale = measureScale()
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", n))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (engine schedule %.1f ns/op, %d allocs/op)\n",
		path, snap.Engine["schedule"].NsPerOp, snap.Engine["schedule"].AllocsPerOp)
	fmt.Printf("fsoilint: %d packages loaded in %.2fs, analyzed in %.3fs (%d findings, %d workers)\n",
		lb.Packages, lb.LoadSeconds, lb.RunSeconds, lb.Findings, snap.Workers)
	if sc := snap.Scale; sc != nil {
		fmt.Printf("scale: %d nodes serial %.1fs, -par %d %.1fs, speedup %.2fx (GOMAXPROCS %d)\n",
			sc.Nodes, sc.SerialWallSeconds, sc.ParWorkers, sc.ParWallSeconds, sc.Speedup, snap.GOMAXPROCS)
	}
}

// measureScale times the 1024-node scale-half run — jacobi at scale
// 0.008, the EXPERIMENTS.md wall-clock table's row — on the serial
// engine and on the windowed parallel engine (8 shards, 8 workers).
func measureScale() *scaleBench {
	const (
		nodes      = 1024
		appName    = "jacobi"
		appScale   = 0.008
		shards     = 8
		parWorkers = 8
	)
	app, ok := workload.ByName(appName, appScale)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchtrend: unknown scale app %q\n", appName)
		os.Exit(1)
	}
	run := func(par int) (int64, float64) {
		cfg := system.Default(nodes, system.NetFSOI)
		if par > 0 {
			cfg.Shards, cfg.ParWorkers = shards, par
		}
		s := system.New(cfg)
		start := time.Now()
		m := s.Run(app)
		wall := time.Since(start).Seconds()
		if !m.Finished {
			fmt.Fprintf(os.Stderr, "benchtrend: %d-node scale run did not finish\n", nodes)
			os.Exit(1)
		}
		return int64(m.Cycles), wall
	}
	sc := &scaleBench{
		Nodes: nodes, App: appName, Scale: appScale,
		Shards: shards, ParWorkers: parWorkers,
	}
	sc.SerialCycles, sc.SerialWallSeconds = run(0)
	sc.ParCycles, sc.ParWallSeconds = run(parWorkers)
	sc.Speedup = sc.SerialWallSeconds / sc.ParWallSeconds
	return sc
}

// timeLint measures one fsoilint pass over the module the snapshot is
// taken in: it walks up from the cwd to the enclosing go.mod like the
// fsoilint binary does.
func timeLint(workers int) (*lintBench, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		return nil, err
	}
	loader.Jobs = workers
	start := time.Now()
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	loaded := time.Now()
	findings := lint.RunWorkers(pkgs, lint.Analyzers(), workers)
	return &lintBench{
		LoadSeconds: loaded.Sub(start).Seconds(),
		RunSeconds:  time.Since(loaded).Seconds(),
		Packages:    len(pkgs),
		Findings:    len(findings),
	}, nil
}

// checkEngine is the CI regression gate: it re-measures the engine hot
// path and fails when the schedule or churn benchmark regressed past
// the tolerance. Allocation counts are machine-independent and must
// never grow; ns/op is compared with the fractional tolerance to
// absorb host-to-host variance.
func checkEngine(baselinePath string, tolerance float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	fresh := map[string]engineBench{
		"schedule": record(testing.Benchmark(benchSchedule)),
		"churn":    record(testing.Benchmark(benchChurn)),
	}
	failed := false
	for _, name := range []string{"schedule", "churn"} {
		want, ok := base.Engine[name]
		if !ok {
			return fmt.Errorf("%s has no engine benchmark %q", baselinePath, name)
		}
		got := fresh[name]
		limit := want.NsPerOp * (1 + tolerance)
		verdict := "ok"
		if got.AllocsPerOp > want.AllocsPerOp {
			verdict = fmt.Sprintf("FAIL: %d allocs/op, baseline %d", got.AllocsPerOp, want.AllocsPerOp)
			failed = true
		} else if got.NsPerOp > limit {
			verdict = fmt.Sprintf("FAIL: exceeds baseline by more than %.0f%%", tolerance*100)
			failed = true
		}
		fmt.Printf("engine %-8s  %10.1f ns/op (baseline %.1f, limit %.1f)  %d allocs/op  %s\n",
			name, got.NsPerOp, want.NsPerOp, limit, got.AllocsPerOp, verdict)
	}
	if failed {
		return fmt.Errorf("engine hot path regressed against %s", baselinePath)
	}
	fmt.Printf("engine hot path within %.0f%% of %s\n", tolerance*100, baselinePath)

	// The parallel-speedup gate exists only for baselines that recorded
	// a scale section; older snapshots (BENCH_0.json predates the
	// windowed engine) skip it, keeping -check backward-compatible.
	if base.Scale != nil {
		fresh := measureScale()
		floor := base.Scale.Speedup * (1 - tolerance)
		verdict := "ok"
		if fresh.Speedup < floor {
			verdict = fmt.Sprintf("FAIL: below %.2fx", floor)
		}
		fmt.Printf("scale %-8d  %6.2fx speedup, serial %.1fs vs -par %d %.1fs (baseline %.2fx, floor %.2fx)  %s\n",
			fresh.Nodes, fresh.Speedup, fresh.SerialWallSeconds, fresh.ParWorkers,
			fresh.ParWallSeconds, base.Scale.Speedup, floor, verdict)
		if fresh.Speedup < floor {
			return fmt.Errorf("parallel speedup regressed against %s", baselinePath)
		}
	}
	return nil
}

// record converts a testing.BenchmarkResult to the snapshot schema.
func record(r testing.BenchmarkResult) engineBench {
	return engineBench{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
	}
}
