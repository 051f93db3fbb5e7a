// Package exp contains one runner per table and figure of the paper's
// evaluation (§6-§7). Each runner takes a Scale knob so the same code
// serves the full-size cmd/experiments binary and the scaled-down
// bench_test.go harness, and returns both a formatted table and the raw
// series for programmatic checks.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"fsoi/internal/analytic"
	"fsoi/internal/core"
	"fsoi/internal/obs"
	"fsoi/internal/optics"
	"fsoi/internal/parallel"
	"fsoi/internal/sim"
	"fsoi/internal/stats"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

// Options control experiment sizing.
type Options struct {
	// Scale multiplies workload length; 1.0 is the full experiment.
	Scale float64
	// Apps restricts the suite (nil = all sixteen).
	Apps []string
	// Seed feeds every deterministic random stream.
	Seed uint64
	// Trials sizes Monte Carlo estimates.
	Trials int
	// Workers bounds how many independent simulations run concurrently;
	// values <= 1 run everything serially on the calling goroutine.
	// Results are byte-identical at every worker count: each grid builds
	// its job list in a fixed order, every job owns its own engine and
	// RNG tree, and results merge by job index, never completion order.
	Workers int
	// Trace, when non-nil, turns on the packet-lifecycle observability
	// layer for every simulated run and streams each run's recording to
	// the sink. Sinks are fed strictly in job order after a grid
	// finishes, never from worker goroutines, so the emitted bytes are
	// identical at every Workers value.
	Trace TraceSink
}

// TraceSink receives one lifecycle recording per simulated run.
type TraceSink interface {
	// WriteRun consumes one run's recorder (never nil). The label
	// identifies the run within its experiment: job index, application,
	// network kind, and node count.
	WriteRun(label string, rec *obs.Recorder)
}

// DefaultOptions returns full-size settings.
func DefaultOptions() Options {
	return Options{Scale: 0.5, Seed: 1, Trials: 30000}
}

// BenchOptions returns the scaled-down settings used by bench_test.go.
func BenchOptions() Options {
	return Options{Scale: 0.05, Seed: 1, Trials: 4000, Apps: []string{"jacobi", "mp3d", "raytrace", "fft"}}
}

// suite returns the selected applications.
func (o Options) suite() []workload.App {
	all := workload.Suite(o.Scale)
	if len(o.Apps) == 0 {
		return all
	}
	var out []workload.App
	for _, name := range o.Apps {
		for _, a := range all {
			if a.Name == name {
				out = append(out, a)
			}
		}
	}
	return out
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Text   string             // formatted table(s)
	Values map[string]float64 // key metrics for tests/EXPERIMENTS.md
}

// Runner regenerates one table or figure.
type Runner func(o Options) Result

// Registry maps experiment ids to runners, in paper order.
var Registry = []struct {
	ID     string
	Runner Runner
}{
	{"table1", Table1},
	{"fig3", Fig3},
	{"fig4", Fig4},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"table4", Table4},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"hints", Hints},
	{"llsc", LLSC},
	{"corona", Corona},
	{"frontier", Frontier},
	{"faults", Faults},
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Runner, true
		}
	}
	return nil, false
}

// Table1 regenerates the optical-link parameter table from device first
// principles.
func Table1(o Options) Result {
	r := optics.PaperLink().Budget()
	chip := optics.PaperChip(4)
	var b strings.Builder
	fmt.Fprintf(&b, "Worst-case route: %.1f mm (die %v mm, folded through the mirror layer)\n\n",
		chip.WorstCasePath()*1e3, chip.DieEdge*1e3)
	b.WriteString(r.String())
	return Result{
		ID:    "table1",
		Title: "Table 1: optical link parameters",
		Text:  b.String(),
		Values: map[string]float64{
			"path_loss_db": float64(r.PathLoss.TotalDB),
			"snr_db":       float64(r.OpticalSNRdB),
			"ber":          r.BER,
			"jitter_ps":    r.JitterRMS * 1e12,
			"bits_per_cyc": float64(r.BitsPerCycle),
			"tx_mw":        float64(r.TxActivePowerW) * 1e3,
			"rx_mw":        float64(r.RxPowerW) * 1e3,
			"standby_mw":   float64(r.TxStandbyPowerW) * 1e3,
		},
	}
}

// Fig3 regenerates the collision-probability curves: analytic lines for
// R=1..4 plus Monte Carlo cross-checks at R=2.
func Fig3(o Options) Result {
	rng := sim.NewRNG(o.Seed).NewStream("fig3")
	ps := []float64{0.33, 0.25, 0.20, 0.15, 0.10, 0.07, 0.05, 0.04, 0.03, 0.02, 0.01}
	t := stats.NewTable("p", "R=1", "R=2", "R=3", "R=4", "R=2 (MC)")
	vals := map[string]float64{}
	for _, p := range ps {
		row := []string{fmt.Sprintf("%.2f", p)}
		for r := 1; r <= 4; r++ {
			c := analytic.CollisionParams{N: 16, R: r, P: p}
			v := analytic.PacketCollisionProbability(c)
			row = append(row, fmt.Sprintf("%.4f", v))
			vals[fmt.Sprintf("p%.2f_r%d", p, r)] = v
		}
		mc, _ := analytic.MonteCarloCollision(analytic.CollisionParams{N: 16, R: 2, P: p}, rng, o.Trials, o.Workers)
		row = append(row, fmt.Sprintf("%.4f", mc))
		t.AddRow(row...)
	}
	return Result{
		ID:     "fig3",
		Title:  "Figure 3: collision probability vs transmission probability",
		Text:   t.String(),
		Values: vals,
	}
}

// Fig4 regenerates the collision-resolution-delay surface over (W, B) at
// background rates 1% and 10%, plus the pathological 64-node burst.
func Fig4(o Options) Result {
	rng := sim.NewRNG(o.Seed).NewStream("fig4")
	ws := []float64{1.5, 2.0, 2.7, 3.0, 4.0, 5.0}
	bs := []float64{1.05, 1.1, 1.2, 1.5, 2.0}
	vals := map[string]float64{}
	var b strings.Builder
	for _, g := range []float64{0.01, 0.10} {
		fmt.Fprintf(&b, "G = %.0f%% (mean collision resolution delay, cycles)\n", g*100)
		t := stats.NewTable(append([]string{"W \\ B"}, fmtFloats(bs)...)...)
		surface := analytic.ResolutionDelaySurface(ws, bs, g, rng.NewStream(fmt.Sprint(g)), o.Trials, o.Workers)
		for i, w := range ws {
			row := []string{fmt.Sprintf("%.1f", w)}
			for j := range bs {
				row = append(row, fmt.Sprintf("%.2f", surface[i][j]))
			}
			t.AddRow(row...)
		}
		b.WriteString(t.String())
		b.WriteString("\n")
		wOpt, bOpt, dOpt := analytic.OptimalWB(ws, bs, g, rng.NewStream("opt"+fmt.Sprint(g)), o.Trials, o.Workers)
		fmt.Fprintf(&b, "optimum: W=%.1f B=%.2f delay=%.2f cycles (paper: W=2.7 B=1.1, 7.26 cycles)\n\n", wOpt, bOpt, dOpt)
		vals[fmt.Sprintf("opt_w_g%.0f", g*100)] = wOpt
		vals[fmt.Sprintf("opt_b_g%.0f", g*100)] = bOpt
		vals[fmt.Sprintf("opt_delay_g%.0f", g*100)] = dOpt
	}
	// Pathological case (§4.3.2): 64-node all-to-one burst.
	patho := analytic.PaperBackoff(0).Pathological(rng.NewStream("patho"), 64, 2, o.Trials/100+10, 1<<17, o.Workers)
	classic := analytic.BackoffModel{W: 2.7, B: 2, SlotCycles: 2}
	pClassic := classic.Pathological(rng.NewStream("classic"), 64, 2, o.Trials/100+10, 1<<17, o.Workers)
	fmt.Fprintf(&b, "pathological 64->1 burst: B=1.1 first success after %.0f retries (%.0f cycles); B=2 after %.0f retries (%.0f cycles)\n",
		patho.MeanRetriesFirst, patho.MeanCyclesFirst, pClassic.MeanRetriesFirst, pClassic.MeanCyclesFirst)
	vals["patho_retries_b11"] = patho.MeanRetriesFirst
	vals["patho_cycles_b11"] = patho.MeanCyclesFirst
	return Result{ID: "fig4", Title: "Figure 4: backoff tuning surface", Text: b.String(), Values: vals}
}

func fmtFloats(fs []float64) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf("%.2f", f)
	}
	return out
}

// runOne executes one app on one network configuration.
func runOne(o Options, app workload.App, kind system.NetworkKind, nodes int, mutate func(*system.Config)) system.Metrics {
	cfg := system.Default(nodes, kind)
	cfg.Seed = o.Seed
	if mutate != nil {
		mutate(&cfg)
	}
	if o.Trace != nil {
		cfg.Observe = true
	}
	return system.New(cfg).Run(app)
}

// simJob names one independent simulation inside an experiment grid.
type simJob struct {
	app    workload.App
	kind   system.NetworkKind
	nodes  int
	mutate func(*system.Config)
	// tag overrides the network-kind name in trace labels; grids that
	// multiplex several topologies through one kind (NetOptical) set it.
	tag string
}

// runGrid executes the jobs on up to o.Workers goroutines and returns
// their metrics in job order. Every runner builds its job list in the
// same order its formatting loop consumes results, so the rendered
// tables are byte-for-byte those of the old serial loops.
func runGrid(o Options, jobs []simJob) []system.Metrics {
	ms := parallel.Map(len(jobs), o.Workers, func(i int) system.Metrics {
		j := jobs[i]
		return runOne(o, j.app, j.kind, j.nodes, j.mutate)
	})
	if o.Trace != nil {
		// Drain the per-run recorders by job index after the barrier: the
		// sink sees the same sequence regardless of how many workers ran
		// the grid or which finished first.
		for i, m := range ms {
			j := jobs[i]
			label := j.kind.String()
			if j.tag != "" {
				label = j.tag
			}
			o.Trace.WriteRun(fmt.Sprintf("job%03d %s %s n%d", i, j.app.Name, label, j.nodes), m.Obs)
		}
	}
	return ms
}

// Fig5 regenerates the read-miss reply-latency distribution on the
// 16-node FSOI system.
func Fig5(o Options) Result {
	hist := stats.NewHistogram(5, 60)
	apps := o.suite()
	jobs := make([]simJob, len(apps))
	for i, app := range apps {
		jobs[i] = simJob{app: app, kind: system.NetFSOI, nodes: 16}
	}
	for _, m := range runGrid(o, jobs) {
		for i := 0; i < hist.NumBuckets(); i++ {
			hist.AddN(int64(i)*5, m.ReplyHist.Bucket(i))
		}
		hist.AddN(int64(hist.NumBuckets())*5, m.ReplyHist.Overflow())
	}
	var b strings.Builder
	t := stats.NewTable("latency (cycles)", "requests (%)")
	for i := 0; i < hist.NumBuckets(); i += 2 {
		frac := hist.Fraction(i) + hist.Fraction(i+1)
		t.AddRow(fmt.Sprintf("%d-%d", i*5, (i+2)*5-1), fmt.Sprintf("%.1f", frac*100))
	}
	t.AddRow(">300", fmt.Sprintf("%.1f", float64(hist.Overflow())/float64(hist.Total())*100))
	b.WriteString(t.String())
	bucket, frac := hist.ModeFraction()
	fmt.Fprintf(&b, "\nmodal bin %d-%d cycles holds %.0f%% of requests (paper: 41%% concentration)\n",
		bucket*5, bucket*5+4, frac*100)
	return Result{
		ID:    "fig5",
		Title: "Figure 5: distribution of read-miss reply latency (FSOI, 16 nodes)",
		Text:  b.String(),
		Values: map[string]float64{
			"mode_frac":   frac,
			"mode_cycles": float64(bucket * 5),
			"mean":        hist.Mean(),
		},
	}
}

// speedupStudy runs the Figure 6/7 comparison at the given node count.
func speedupStudy(o Options, nodes int) (Result, map[string][]float64) {
	kinds := []system.NetworkKind{system.NetMesh, system.NetFSOI, system.NetL0, system.NetLr1, system.NetLr2}
	apps := o.suite()
	t := stats.NewTable("app", "mesh lat", "fsoi lat", "queue", "sched", "net", "resolve", "fsoi", "L0", "Lr1", "Lr2")
	speed := map[string][]float64{}
	vals := map[string]float64{}
	var jobs []simJob
	for _, app := range apps {
		for _, kind := range kinds {
			jobs = append(jobs, simJob{app: app, kind: kind, nodes: nodes})
		}
	}
	ms := runGrid(o, jobs)
	for ai, app := range apps {
		var base system.Metrics
		row := map[system.NetworkKind]system.Metrics{}
		for ki, kind := range kinds {
			m := ms[ai*len(kinds)+ki]
			row[kind] = m
			if kind == system.NetMesh {
				base = m
			}
		}
		f := row[system.NetFSOI]
		q, sc, nw, res := f.Latency.Breakdown()
		cells := []string{app.Name,
			fmt.Sprintf("%.1f", base.Latency.MeanTotal()),
			fmt.Sprintf("%.1f", f.Latency.MeanTotal()),
			fmt.Sprintf("%.1f", q), fmt.Sprintf("%.1f", sc), fmt.Sprintf("%.1f", nw), fmt.Sprintf("%.1f", res),
		}
		for _, kind := range kinds[1:] {
			sp := row[kind].Speedup(base)
			speed[kind.String()] = append(speed[kind.String()], sp)
			cells = append(cells, fmt.Sprintf("%.3f", sp))
		}
		t.AddRow(cells...)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\ngeometric means: ")
	chart := stats.NewBarChart("\nspeedup over mesh (geomean)", 40)
	for _, kind := range kinds[1:] {
		g := stats.GeoMean(speed[kind.String()])
		vals["geomean_"+kind.String()] = g
		fmt.Fprintf(&b, "%s=%.3f  ", kind, g)
		chart.Add(kind.String(), g)
	}
	b.WriteString("\n")
	b.WriteString(chart.String())
	id := "fig6"
	title := "Figure 6: 16-node latency and speedups"
	if nodes == 64 {
		id, title = "fig7", "Figure 7: 64-node latency and speedups"
	}
	return Result{ID: id, Title: title, Text: b.String(), Values: vals}, speed
}

// Fig6 is the 16-node performance study.
func Fig6(o Options) Result {
	r, _ := speedupStudy(o, 16)
	return r
}

// Fig7 is the 64-node performance study (phase-array transmitters).
func Fig7(o Options) Result {
	r, _ := speedupStudy(o, 64)
	return r
}

// Table4 compares speedups at 8.8 vs 52.8 GB/s memory bandwidth.
func Table4(o Options) Result {
	t := stats.NewTable("system", "bandwidth", "FSOI", "L0", "Lr1", "Lr2")
	vals := map[string]float64{}
	// The job list mirrors the consumption loops below exactly, so the
	// replay (including the carried-over mesh baseline) reproduces the
	// serial table byte for byte.
	var jobs []simJob
	for _, nodes := range []int{16, 64} {
		if nodes == 64 && o.Scale < 0.2 {
			continue
		}
		for _, bw := range []float64{8.8, 52.8} {
			for _, kind := range []system.NetworkKind{system.NetMesh, system.NetFSOI, system.NetL0, system.NetLr1, system.NetLr2} {
				for _, app := range o.suite() {
					jobs = append(jobs, simJob{app: app, kind: kind, nodes: nodes,
						mutate: func(c *system.Config) { c.Memory.TotalGBps = bw }})
				}
			}
		}
	}
	ms := runGrid(o, jobs)
	idx := 0
	for _, nodes := range []int{16, 64} {
		if nodes == 64 && o.Scale < 0.2 {
			// Benches skip the 64-node half for time.
			continue
		}
		for _, bw := range []float64{8.8, 52.8} {
			speed := map[system.NetworkKind]float64{}
			var base system.Metrics
			for _, kind := range []system.NetworkKind{system.NetMesh, system.NetFSOI, system.NetL0, system.NetLr1, system.NetLr2} {
				var sum []float64
				for range o.suite() {
					m := ms[idx]
					idx++
					if kind == system.NetMesh {
						base = m
					}
					sum = append(sum, m.Speedup(base))
				}
				speed[kind] = stats.GeoMean(sum)
			}
			t.AddRow(fmt.Sprintf("%d-core", nodes), fmt.Sprintf("%.1fGB/s", bw),
				fmt.Sprintf("%.3f", speed[system.NetFSOI]), fmt.Sprintf("%.3f", speed[system.NetL0]),
				fmt.Sprintf("%.3f", speed[system.NetLr1]), fmt.Sprintf("%.3f", speed[system.NetLr2]))
			vals[fmt.Sprintf("fsoi_%d_%.1f", nodes, bw)] = speed[system.NetFSOI]
		}
	}
	return Result{ID: "table4", Title: "Table 4: memory-bandwidth sensitivity", Text: t.String(), Values: vals}
}

// Fig8 compares energy relative to the mesh baseline.
func Fig8(o Options) Result {
	t := stats.NewTable("app", "network", "core+cache", "leakage", "total rel", "fsoi W", "mesh W")
	var relSum, netRatioSum float64
	var count int
	vals := map[string]float64{}
	apps := o.suite()
	var jobs []simJob
	for _, app := range apps {
		jobs = append(jobs,
			simJob{app: app, kind: system.NetMesh, nodes: 16},
			simJob{app: app, kind: system.NetFSOI, nodes: 16})
	}
	ms := runGrid(o, jobs)
	for ai, app := range apps {
		mMesh, mFsoi := ms[2*ai], ms[2*ai+1]
		baseTotal := mMesh.Energy.Total()
		rel := float64(mFsoi.Energy.Total() / baseTotal)
		t.AddRow(app.Name,
			fmt.Sprintf("%.3f", mFsoi.Energy.Network/baseTotal),
			fmt.Sprintf("%.3f", mFsoi.Energy.CoreCache/baseTotal),
			fmt.Sprintf("%.3f", mFsoi.Energy.Leakage/baseTotal),
			fmt.Sprintf("%.3f", rel),
			fmt.Sprintf("%.1f", mFsoi.AvgPowerW),
			fmt.Sprintf("%.1f", mMesh.AvgPowerW))
		relSum += rel
		if mFsoi.Energy.Network > 0 {
			netRatioSum += float64(mMesh.Energy.Network / mFsoi.Energy.Network)
		}
		count++
	}
	var b strings.Builder
	b.WriteString(t.String())
	avgSaving := 1 - relSum/float64(count)
	netRatio := netRatioSum / float64(count)
	fmt.Fprintf(&b, "\naverage energy saving %.1f%% (paper: 40.6%%); network energy ratio mesh/FSOI %.1fx (paper: ~20x)\n",
		avgSaving*100, netRatio)
	vals["avg_saving"] = avgSaving
	vals["net_ratio"] = netRatio
	return Result{ID: "fig8", Title: "Figure 8: energy relative to mesh baseline", Text: b.String(), Values: vals}
}

// Fig9 shows the meta-lane collision rate vs transmission probability
// with and without the confirmation-substitution (ack elision).
func Fig9(o Options) Result {
	t := stats.NewTable("app", "p base", "coll base", "p opt", "coll opt", "theory(p base)")
	var collBase, collOpt, metaBase, metaOpt float64
	apps := o.suite()
	var jobs []simJob
	for _, app := range apps {
		jobs = append(jobs,
			simJob{app: app, kind: system.NetFSOI, nodes: 16,
				mutate: func(c *system.Config) { c.FSOI.Opt.AckElision = false }},
			simJob{app: app, kind: system.NetFSOI, nodes: 16})
	}
	ms := runGrid(o, jobs)
	for ai, app := range apps {
		off, on := ms[2*ai], ms[2*ai+1]
		pb := off.FSOI.TransmissionProbability(core.LaneMeta)
		po := on.FSOI.TransmissionProbability(core.LaneMeta)
		cb := off.FSOI.CollisionRate(core.LaneMeta)
		co := on.FSOI.CollisionRate(core.LaneMeta)
		theory := analytic.PacketCollisionProbability(analytic.CollisionParams{N: 16, R: 2, P: pb})
		t.AddRow(app.Name, fmt.Sprintf("%.4f", pb), fmt.Sprintf("%.4f", cb),
			fmt.Sprintf("%.4f", po), fmt.Sprintf("%.4f", co), fmt.Sprintf("%.4f", theory))
		collBase += cb * float64(off.FSOI.Attempts[core.LaneMeta])
		collOpt += co * float64(on.FSOI.Attempts[core.LaneMeta])
		metaBase += float64(off.MetaPackets)
		metaOpt += float64(on.MetaPackets)
	}
	var b strings.Builder
	b.WriteString(t.String())
	trafficCut := 1 - metaOpt/metaBase
	collCut := 1 - collOpt/collBase
	fmt.Fprintf(&b, "\nack elision cuts meta traffic by %.1f%% and meta collisions by %.1f%% (paper: 5.1%% traffic, 31.5%% collisions)\n",
		trafficCut*100, collCut*100)
	return Result{ID: "fig9", Title: "Figure 9: meta collision rate vs transmission probability",
		Text: b.String(), Values: map[string]float64{"traffic_cut": trafficCut, "collision_cut": collCut}}
}

// Fig10 breaks down data-lane collisions by kind with and without the
// §5.2 optimizations.
func Fig10(o Options) Result {
	t := stats.NewTable("app", "config", "retrans", "writeback", "memory", "reply", "coll rate")
	var rateOff, rateOn []float64
	apps := o.suite()
	var jobs []simJob
	for _, app := range apps {
		for _, on := range []bool{false, true} {
			jobs = append(jobs, simJob{app: app, kind: system.NetFSOI, nodes: 16,
				mutate: func(c *system.Config) {
					if !on {
						c.FSOI.Opt.ReceiverScheduling = false
						c.FSOI.Opt.WritebackSplit = false
						c.FSOI.Opt.RetransmitHints = false
					}
				}})
		}
	}
	ms := runGrid(o, jobs)
	idx := 0
	for _, app := range apps {
		for _, on := range []bool{false, true} {
			m := ms[idx]
			idx++
			st := m.FSOI
			kinds := st.DataByKind[0] + st.DataByKind[1] + st.DataByKind[2] + st.DataByKind[3]
			if kinds == 0 {
				kinds = 1
			}
			total := float64(kinds)
			name := "base"
			if on {
				name = "opt"
			}
			rate := st.CollisionRate(core.LaneData)
			t.AddRow(app.Name, name,
				fmt.Sprintf("%.2f", float64(st.DataByKind[core.CollisionRetransmission])/total),
				fmt.Sprintf("%.2f", float64(st.DataByKind[core.CollisionWriteback])/total),
				fmt.Sprintf("%.2f", float64(st.DataByKind[core.CollisionMemory])/total),
				fmt.Sprintf("%.2f", float64(st.DataByKind[core.CollisionReply])/total),
				fmt.Sprintf("%.4f", rate))
			if on {
				rateOn = append(rateOn, rate)
			} else {
				rateOff = append(rateOff, rate)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.String())
	avoided := 1 - mean(rateOn)/mean(rateOff)
	fmt.Fprintf(&b, "\ndata collision rate %.2f%% -> %.2f%%: %.0f%% of collisions avoided (paper: 9.4%% -> 5.8%%, ~38%% avoided)\n",
		mean(rateOff)*100, mean(rateOn)*100, avoided*100)
	return Result{ID: "fig10", Title: "Figure 10: data-lane collision breakdown",
		Text: b.String(), Values: map[string]float64{"rate_off": mean(rateOff), "rate_on": mean(rateOn), "avoided": avoided}}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fig11 sweeps relative bandwidth from 100% down to 50% for both FSOI and
// the mesh, normalizing each to its own full-bandwidth configuration.
func Fig11(o Options) Result {
	// FSOI points: (data, meta) VCSEL counts scaling total bandwidth.
	fsoiPoints := []struct {
		frac       float64
		meta, data int
	}{
		{1.00, 3, 6}, {0.89, 3, 5}, {0.78, 2, 5}, {0.67, 2, 4}, {0.56, 2, 3}, {0.50, 2, 3},
	}
	meshFracs := []float64{1.00, 0.89, 0.78, 0.67, 0.56, 0.50}
	apps := o.suite()
	var jobs []simJob
	for i := range fsoiPoints {
		fp := fsoiPoints[i]
		mf := meshFracs[i]
		for _, app := range apps {
			jobs = append(jobs, simJob{app: app, kind: system.NetFSOI, nodes: 16,
				mutate: func(c *system.Config) {
					c.FSOI.MetaVCSELs = fp.meta
					c.FSOI.DataVCSELs = fp.data
				}})
		}
		for _, app := range apps {
			jobs = append(jobs, simJob{app: app, kind: system.NetMesh, nodes: 16,
				mutate: func(c *system.Config) { c.MeshBandwidthFrac = mf }})
		}
	}
	ms := runGrid(o, jobs)
	// geo reduces one app-block of results to its geomean cycle count.
	geo := func(start int) float64 {
		var cycles []float64
		for k := range apps {
			cycles = append(cycles, float64(ms[start+k].Cycles))
		}
		return stats.GeoMean(cycles)
	}
	t := stats.NewTable("rel bandwidth", "FSOI rel perf", "mesh rel perf")
	vals := map[string]float64{}
	var fsoiBase, meshBase float64
	for i := range fsoiPoints {
		fp := fsoiPoints[i]
		fc := geo(2 * i * len(apps))
		mf := meshFracs[i]
		mc := geo(2*i*len(apps) + len(apps))
		if i == 0 {
			fsoiBase, meshBase = fc, mc
		}
		fRel := fsoiBase / fc
		mRel := meshBase / mc
		t.AddRow(fmt.Sprintf("%.0f%%", fp.frac*100), fmt.Sprintf("%.3f", fRel), fmt.Sprintf("%.3f", mRel))
		vals[fmt.Sprintf("fsoi_%.2f", fp.frac)] = fRel
		vals[fmt.Sprintf("mesh_%.2f", mf)] = mRel
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\nboth networks degrade as bandwidth shrinks; FSOI shows less sensitivity (paper Figure 11)\n")
	return Result{ID: "fig11", Title: "Figure 11: performance vs relative bandwidth", Text: b.String(), Values: vals}
}

// Hints measures the §5.2 retransmission-hint effectiveness.
func Hints(o Options) Result {
	var correct, issued, wrong int64
	var resWith, resWithout []float64
	apps := o.suite()
	var jobs []simJob
	for _, app := range apps {
		jobs = append(jobs,
			simJob{app: app, kind: system.NetFSOI, nodes: 64},
			simJob{app: app, kind: system.NetFSOI, nodes: 64,
				mutate: func(c *system.Config) { c.FSOI.Opt.RetransmitHints = false }})
	}
	ms := runGrid(o, jobs)
	for ai := range apps {
		on, off := ms[2*ai], ms[2*ai+1]
		correct += on.FSOI.HintsCorrect
		issued += on.FSOI.HintsIssued
		wrong += on.FSOI.HintsWrong
		resWith = append(resWith, on.Latency.Resolution.Mean())
		resWithout = append(resWithout, off.Latency.Resolution.Mean())
	}
	acc := float64(correct) / float64(max64(issued, 1))
	wrongFrac := float64(wrong) / float64(max64(issued, 1))
	text := fmt.Sprintf(
		"hint accuracy: %.1f%% (paper: 94%%); wrong-winner rate: %.1f%% (paper: 2.3%%)\n"+
			"mean data resolution delay with hints %.1f vs without %.1f cycles (paper: 29 vs 41)\n",
		acc*100, wrongFrac*100, mean(resWith), mean(resWithout))
	return Result{ID: "hints", Title: "§7.3: retransmission hint effectiveness", Text: text,
		Values: map[string]float64{"accuracy": acc, "wrong": wrongFrac, "res_with": mean(resWith), "res_without": mean(resWithout)}}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// LLSC measures the boolean-subscription synchronization optimization on
// the synchronization-heavy applications.
func LLSC(o Options) Result {
	syncApps := []string{"barnes", "radiosity", "raytrace", "water-sp", "ilink", "tsp", "fmm"}
	opts := o
	opts.Apps = intersect(syncApps, o.Apps)
	var speedups []float64
	var metaCut, dataCut []float64
	t := stats.NewTable("app", "speedup", "meta cut %", "data cut %")
	// §5.1 quantifies this on the 64-way system, where spin traffic and
	// invalidation storms are N times heavier.
	apps := opts.suite()
	var jobs []simJob
	for _, app := range apps {
		jobs = append(jobs,
			simJob{app: app, kind: system.NetFSOI, nodes: 64},
			simJob{app: app, kind: system.NetFSOI, nodes: 64,
				mutate: func(c *system.Config) { c.ForceCoherentSync = true }})
	}
	ms := runGrid(o, jobs)
	for ai, app := range apps {
		with, without := ms[2*ai], ms[2*ai+1]
		sp := float64(without.Cycles) / float64(with.Cycles)
		mc := 1 - float64(with.MetaPackets)/float64(without.MetaPackets)
		dc := 1 - float64(with.DataPackets)/float64(without.DataPackets)
		speedups = append(speedups, sp)
		metaCut = append(metaCut, mc)
		dataCut = append(dataCut, dc)
		t.AddRow(app.Name, fmt.Sprintf("%.3f", sp), fmt.Sprintf("%.1f", mc*100), fmt.Sprintf("%.1f", dc*100))
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\ngeomean speedup %.3f (paper: 1.07); meta packets cut %.1f%% (paper: 11%%), data cut %.1f%% (paper: 8%%)\n",
		stats.GeoMean(speedups), mean(metaCut)*100, mean(dataCut)*100)
	return Result{ID: "llsc", Title: "§7.3: ll/sc over the confirmation channel", Text: b.String(),
		Values: map[string]float64{"speedup": stats.GeoMean(speedups), "meta_cut": mean(metaCut), "data_cut": mean(dataCut)}}
}

func intersect(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	set := map[string]bool{}
	for _, x := range b {
		set[x] = true
	}
	var out []string
	for _, x := range a {
		if set[x] {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return a[:1]
	}
	return out
}

// Corona compares FSOI against the corona-style crossbar at 64 nodes.
func Corona(o Options) Result {
	var ratios []float64
	t := stats.NewTable("app", "fsoi cycles", "corona cycles", "fsoi/corona speedup")
	apps := o.suite()
	var jobs []simJob
	for _, app := range apps {
		jobs = append(jobs,
			simJob{app: app, kind: system.NetFSOI, nodes: 64},
			simJob{app: app, kind: system.NetCorona, nodes: 64})
	}
	ms := runGrid(o, jobs)
	for ai, app := range apps {
		f, c := ms[2*ai], ms[2*ai+1]
		r := float64(c.Cycles) / float64(f.Cycles)
		ratios = append(ratios, r)
		t.AddRow(app.Name, fmt.Sprint(f.Cycles), fmt.Sprint(c.Cycles), fmt.Sprintf("%.3f", r))
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\ngeomean: FSOI is %.3fx the corona-style design (paper: 1.06x)\n", stats.GeoMean(ratios))
	return Result{ID: "corona", Title: "§7.1: FSOI vs corona-style crossbar (64 nodes)", Text: b.String(),
		Values: map[string]float64{"ratio": stats.GeoMean(ratios)}}
}

// IDs lists experiment ids in paper order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	sort.Strings(out)
	return out
}
