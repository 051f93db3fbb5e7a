// Command fsoisim runs one application on one interconnect configuration
// and prints the full metric set: run time, packet-latency breakdown,
// collision statistics, traffic, and energy.
//
//	fsoisim -app jacobi -net fsoi -nodes 16
//	fsoisim -app mp3d -net mesh -nodes 64 -scale 0.25
//	fsoisim -app raytrace -net fsoi -no-opt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"fsoi/internal/config"
	"fsoi/internal/core"
	"fsoi/internal/obs"
	"fsoi/internal/optnet"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

func main() {
	appName := flag.String("app", "jacobi", "application (see -listapps)")
	netName := flag.String("net", "fsoi", "interconnect: fsoi | mesh | L0 | Lr1 | Lr2 | corona | any optnet topology (matrix, snake, ...)")
	nodes := flag.Int("nodes", 16, "node count, a perfect square (16, 64, 256, 1024)")
	scale := flag.Float64("scale", 0.5, "workload scale factor")
	seed := flag.Uint64("seed", 1, "random seed")
	memGBps := flag.Float64("membw", 8.8, "total memory bandwidth, GB/s")
	noOpt := flag.Bool("no-opt", false, "disable all §5 FSOI optimizations")
	trace := flag.Int("trace", 0, "dump the last N terminated packets")
	traceFile := flag.String("tracefile", "", "record packet-lifecycle events and write them as JSON Lines (read with cmd/fsoitrace)")
	chromeTrace := flag.String("chrometrace", "", "record packet-lifecycle events and write a Chrome trace-event file (chrome://tracing, Perfetto)")
	profilePath := flag.String("profile", "", "write a host CPU profile (pprof) of the run and print engine counters")
	detect := flag.Bool("detect", false, "run the windowed contention detector and print its report (implies observation)")
	shards := flag.Int("shards", 0, "windowed-engine partition: N shards (requires -par; default one shard per worker)")
	par := flag.Int("par", 0, "run on the windowed parallel engine with N workers (FSOI only; byte-identical across worker/shard counts)")
	canonicalPath := flag.String("canonical", "", "write the canonical metric listing to a file (- for stdout), the byte-comparison surface of the equivalence CI")
	configPath := flag.String("config", "", "JSON spec overriding the flags (see internal/config)")
	listApps := flag.Bool("listapps", false, "list applications and exit")
	flag.Parse()

	if *listApps {
		for _, a := range workload.Suite(1) {
			fmt.Println(a.Name)
		}
		return
	}

	app, ok := workload.ByName(*appName, *scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "fsoisim: unknown app %q (use -listapps)\n", *appName)
		os.Exit(2)
	}
	kind, ok := map[string]system.NetworkKind{
		"fsoi": system.NetFSOI, "mesh": system.NetMesh, "L0": system.NetL0,
		"Lr1": system.NetLr1, "Lr2": system.NetLr2, "corona": system.NetCorona,
	}[*netName]
	cfg := system.Default(*nodes, kind)
	if !ok {
		// Fall back to the optical-topology registry (matrix, snake, ...).
		if _, reg := optnet.Get(*netName); !reg {
			fmt.Fprintf(os.Stderr, "fsoisim: unknown network %q (optical topologies: %v)\n",
				*netName, optnet.Names())
			os.Exit(2)
		}
		cfg = system.DefaultOptical(*nodes, *netName)
	}
	cfg.Seed = *seed
	cfg.Memory.TotalGBps = *memGBps
	if *noOpt {
		cfg.FSOI.Opt = core.Optimizations{}
	}
	cfg.TracePackets = *trace
	if *configPath != "" {
		spec, err := config.Load(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsoisim:", err)
			os.Exit(2)
		}
		cfg, err = spec.Build()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsoisim:", err)
			os.Exit(2)
		}
		name, sc := spec.AppAndScale()
		if a, ok := workload.ByName(name, sc); ok {
			app = a
			*scale = sc
		} else {
			fmt.Fprintf(os.Stderr, "fsoisim: unknown app %q in config\n", name)
			os.Exit(2)
		}
	}
	if *traceFile != "" || *chromeTrace != "" {
		cfg.Observe = true
	}
	if *detect {
		cfg.Detect = true
	}
	if *shards > 0 {
		cfg.Shards = *shards
	}
	if *par > 0 {
		cfg.ParWorkers = *par
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "fsoisim:", err)
		os.Exit(2)
	}
	s := system.New(cfg)
	if *profilePath != "" {
		f, err := os.Create(*profilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsoisim:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "fsoisim:", err)
			os.Exit(2)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	m := s.Run(app)

	fmt.Printf("app=%s net=%s nodes=%d scale=%.2f\n", app.Name, m.Net, m.Nodes, *scale)
	fmt.Printf("run time            %d cycles (finished=%v)\n", m.Cycles, m.Finished)
	q, sc, nw, res := m.Latency.Breakdown()
	fmt.Printf("packet latency      %.2f cycles = queuing %.2f + scheduling %.2f + network %.2f + resolution %.2f\n",
		m.Latency.MeanTotal(), q, sc, nw, res)
	fmt.Printf("traffic             %d meta + %d data packets, %d invalidations (%d acks elided), %d NACKs\n",
		m.MetaPackets, m.DataPackets, m.Invalidations, m.ElidedAcks, m.Nacks)
	if m.FSOI != nil {
		fmt.Printf("meta lane           p=%.4f collision rate=%.4f\n",
			m.FSOI.TransmissionProbability(core.LaneMeta), m.FSOI.CollisionRate(core.LaneMeta))
		fmt.Printf("data lane           p=%.4f collision rate=%.4f\n",
			m.FSOI.TransmissionProbability(core.LaneData), m.FSOI.CollisionRate(core.LaneData))
		fmt.Printf("confirmation lane   %d packet confirms + %d boolean pushes\n",
			m.FSOI.ConfirmSignals, m.FSOI.ConfirmBits)
		fmt.Printf("hints               %d issued, %d correct, %d wrong-winner\n",
			m.FSOI.HintsIssued, m.FSOI.HintsCorrect, m.FSOI.HintsWrong)
	}
	if m.FaultCounters != nil {
		fmt.Printf("faults              %d bit errors (%d header, %d CRC), %d confirm drops -> %d timeouts, %d VCSELs failed on %d nodes\n",
			m.FaultCounters.Get("bit_errors"), m.FaultCounters.Get("header_corruptions"),
			m.FaultCounters.Get("payload_crc_errors"), m.FaultCounters.Get("confirm_drops"),
			m.FaultCounters.Get("timeout_retransmits"), m.FaultCounters.Get("vcsels_failed"),
			m.FaultCounters.Get("nodes_degraded"))
	}
	fmt.Printf("energy              %.4f J (network %.4f, core+cache %.4f, leakage %.4f), avg power %.1f W\n",
		m.Energy.Total(), m.Energy.Network, m.Energy.CoreCache, m.Energy.Leakage, m.AvgPowerW)
	if bucket, frac := m.ReplyHist.ModeFraction(); m.ReplyHist.Total() > 0 {
		fmt.Printf("reply latency       mean %.1f cycles, modal bin %d-%d holds %.0f%%\n",
			m.ReplyHist.Mean(), bucket*5, bucket*5+4, frac*100)
	}
	if m.DroppedPackets > 0 {
		fmt.Printf("dropped             %d packets abandoned after retry exhaustion\n", m.DroppedPackets)
	}
	if m.AdversaryNodes > 0 {
		fmt.Printf("adversaries         %d hostile nodes (%d spoofed headers, %d starved confirms), honest cores finished at cycle %d\n",
			m.AdversaryNodes, m.FSOI.SpoofedHeaders, m.FSOI.StarvedConfirms, m.HonestFinish)
	}
	if *trace > 0 {
		fmt.Printf("\nlast %d packets:\n%s", *trace, s.Trace().String())
	}
	if rec := s.Obs(); rec != nil {
		fmt.Printf("\nlifecycle events    %d recorded", rec.Len())
		if rec.Lost() > 0 {
			fmt.Printf(" (%d lost past the cap)", rec.Lost())
		}
		fmt.Println()
		fmt.Println()
		fmt.Print(s.ObsRegistry().String())
		writeTrace(*traceFile, rec, obs.WriteJSONL)
		writeTrace(*chromeTrace, rec, obs.WriteChromeTrace)
	}
	if m.Detection != nil {
		fmt.Println()
		fmt.Print(m.Detection.Table())
	}
	if *profilePath != "" {
		e := s.Engine()
		fmt.Printf("\nengine              %d events fired, event-queue high-water mark %d\n",
			e.EventsFired(), e.MaxQueueDepth())
		fmt.Printf("cpu profile         written to %s\n", *profilePath)
	}
	if w := s.WindowEngine(); w != nil {
		fmt.Printf("parallel            %d shards x %d workers, %d windows of %d cycles, %d cross-shard handoffs (%d tight)\n",
			w.Shards(), w.Workers(), w.WindowCount(), w.Lookahead(), w.Handoffs(), w.TightHandoffs())
	}
	if *canonicalPath != "" {
		text := m.Canonical()
		if *canonicalPath == "-" {
			fmt.Print(text)
		} else if err := os.WriteFile(*canonicalPath, []byte(text), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fsoisim:", err)
			os.Exit(1)
		} else {
			fmt.Printf("canonical metrics   written to %s\n", *canonicalPath)
		}
	}
}

// writeTrace exports a recording through the given encoder, or does
// nothing when no path was requested.
func writeTrace(path string, rec *obs.Recorder, encode func(w io.Writer, r *obs.Recorder) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err == nil {
		err = encode(f, rec)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsoisim:", err)
		os.Exit(1)
	}
	fmt.Printf("trace               written to %s\n", path)
}
