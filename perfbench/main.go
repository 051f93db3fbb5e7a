// Command perfbench measures what the simulator costs on the host: end
// to end, as wall seconds per simulated node-cycle over whole runs
// through system.New and System.Run, and layer by layer, through a
// traced repetition that reads every public counter and replays the
// workload's recorded traffic through each module alone.
//
//	go run . --workload fsoi16-dense --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones (medians over the repetitions that fit in
// --seconds); with --trace 1 they are the per-layer ones. Lines before
// it carry the run manifest and the canonical-listing digest; the span
// summary of a traced run goes to standard error.
//
// Seed 1 is the default seed, the paper's operating point; seed 7 is
// held out for checking claims made while tuning on seed 1.
package main

import (
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "workload seed; the simulator receives only the configs generated from it")
	seconds := flag.Int("seconds", 10, "how long the untraced repetitions are measured")
	trace := flag.Int("trace", 0, "1 adds the traced repetition and layer replays and reports per-layer metrics")
	spansDir := flag.String("spans-dir", "", "directory for the traced run's span list (gzipped JSON Lines)")
	flag.Parse()

	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	out := run(w, o)

	man := manifest(w, o, out.calib)
	manJSON, err := json.Marshal(man)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: manifest: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("manifest %s\n", manJSON)
	fmt.Printf("digest %s seed=%d %s\n", w.Name, o.seed, out.digest)
	if out.spans != nil {
		out.spans.writeSummary(os.Stderr)
		if *spansDir != "" {
			path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.spans.jsonl.gz", w.Name, o.seed))
			if err := saveSpans(path, out.spans); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// saveSpans stores a traced run's spans, gzipped, at path.
func saveSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	zw := gzip.NewWriter(f)
	werr := t.writeSpans(zw)
	if err := zw.Close(); werr == nil {
		werr = err
	}
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		return fmt.Errorf("spans %s: %w", path, werr)
	}
	return nil
}

// manifest records what produced a result, so numbers taken on
// different hosts or revisions stay readable side by side.
func manifest(w workloadSpec, o options, calibNs float64) map[string]any {
	rev, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	cells := make([]map[string]any, len(w.Cells))
	for i, c := range w.Cells {
		cells[i] = map[string]any{"app": c.App, "net": c.Net.String(), "nodes": c.Nodes, "scale": c.Scale, "engine": "serial"}
	}
	return map[string]any{
		"workload":               w.Name,
		"seed":                   o.seed,
		"trace":                  o.trace,
		"budget_s":               o.budget.Seconds(),
		"git_revision":           rev,
		"git_modified":           modified,
		"go_version":             runtime.Version(),
		"gomaxprocs":             runtime.GOMAXPROCS(0),
		"nproc":                  runtime.NumCPU(),
		"pool_workers":           w.Workers,
		"trace_windowed_workers": windowedWorkers,
		"cells":                  cells,
		"host.calib_ns":          calibNs,
		"goos_goarch":            runtime.GOOS + "/" + runtime.GOARCH,
		"setup_reps":             setupReps,
	}
}

// calibrate times a fixed standard-library kernel (sorting the same
// 32768 pseudo-random integers) and returns the median of nine runs in
// ns. It depends on nothing in the simulator, so the ratio of two
// hosts' readings converts history taken on one into the other's
// units.
func calibrate() float64 {
	const n = 1 << 15
	src := make([]int, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		src[i] = int(x >> 1)
	}
	buf := make([]int, n)
	times := make([]float64, 9)
	for k := range times {
		copy(buf, src)
		t := time.Now()
		sort.Ints(buf)
		times[k] = float64(time.Since(t).Nanoseconds())
	}
	return median(times)
}

// median returns the middle value (the mean of the two middle values
// for even counts); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio divides, reporting 0 for an empty denominator so no metric is
// ever NaN or infinite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
