package exp

import (
	"fmt"
	"strings"

	"fsoi/internal/optnet"
	"fsoi/internal/stats"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

// Frontier sweeps the optical-topology registry (internal/optnet)
// across node counts and renders the loss/energy/latency frontier:
//
//   - an analytic half at 16/64/256/1024 nodes, where each topology's
//     worst-case insertion-loss model sets the laser launch power and
//     energy per bit (arXiv:1512.07492 methodology) — this is where the
//     waveguide crossbars' loss grows with radix while the relay-free
//     free-space design stays flat;
//   - a simulated half at 16 (and, at full scale, 64) nodes, running
//     the workload suite over every registered topology through the
//     system layer to pin latency and run time to the same names;
//   - a scale half at 256 (and, at full scale, 1024) nodes on the
//     serial engine, simulating the two §7.1 contenders past the
//     paper's radix.
//
// The 64-node FSOI-vs-token-crossbar run-time ratio reproduces the
// paper's §7.1 Corona comparison (~1.06x) from inside the sweep.
func Frontier(o Options) Result {
	names := optnet.Names()
	vals := map[string]float64{}
	var b strings.Builder

	// Analytic half: the physical frontier.
	at := stats.NewTable("topology", "nodes", "worst loss dB", "launch/λ mW", "laser W", "energy/bit pJ")
	for _, name := range names {
		topo, _ := optnet.Get(name)
		for _, nodes := range []int{16, 64, 256, 1024} {
			r := topo.Loss(nodes)
			at.AddRow(name, fmt.Sprint(nodes),
				fmt.Sprintf("%.2f", r.WorstCaseDB),
				fmt.Sprintf("%.3f", r.LaserPowerMW),
				fmt.Sprintf("%.3f", r.TotalLaserW),
				fmt.Sprintf("%.3f", r.EnergyPerBitJ*1e12))
			vals[fmt.Sprintf("loss_%s_%d", name, nodes)] = float64(r.WorstCaseDB)
			vals[fmt.Sprintf("epb_%s_%d", name, nodes)] = float64(r.EnergyPerBitJ) * 1e12
		}
	}
	b.WriteString("Worst-case insertion loss and laser energy (analytic)\n")
	b.WriteString(at.String())

	// Simulated half: latency and run time on the same names. Benches
	// skip the 64-node grid for time, like Table4.
	simNodes := []int{16}
	if o.Scale >= 0.2 {
		simNodes = append(simNodes, 64)
	}
	var jobs []simJob
	for _, nodes := range simNodes {
		for _, name := range names {
			for _, app := range o.suite() {
				jobs = append(jobs, simJob{app: app, kind: system.NetOptical, nodes: nodes, tag: name,
					mutate: func(c *system.Config) { c.Optical = name }})
			}
		}
	}
	ms := runGrid(o, jobs)
	st := stats.NewTable("topology", "nodes", "geomean cycles", "mean pkt latency", "energy/bit pJ")
	cyc := map[string]float64{}
	idx := 0
	for _, nodes := range simNodes {
		for _, name := range names {
			var cs, lat []float64
			for range o.suite() {
				m := ms[idx]
				idx++
				cs = append(cs, float64(m.Cycles))
				lat = append(lat, m.Latency.MeanTotal())
			}
			g := stats.GeoMean(cs)
			cyc[fmt.Sprintf("%s_%d", name, nodes)] = g
			topo, _ := optnet.Get(name)
			st.AddRow(name, fmt.Sprint(nodes),
				fmt.Sprintf("%.0f", g),
				fmt.Sprintf("%.2f", mean(lat)),
				fmt.Sprintf("%.3f", topo.Loss(nodes).EnergyPerBitJ*1e12))
			vals[fmt.Sprintf("cycles_%s_%d", name, nodes)] = g
		}
	}
	b.WriteString("\nSimulated latency and run time\n")
	b.WriteString(st.String())

	// Scale half: the two §7.1 contenders past the paper's radix, on the
	// serial engine like the rest of the grid. The workload is scaled
	// down with the node count so the sweep prices wall-clock, not
	// patience; 1024 nodes ride along only at full scale.
	if o.Scale >= 0.05 {
		bigNodes := []int{256}
		if o.Scale >= 0.2 {
			bigNodes = append(bigNodes, 1024)
		}
		bigApp, _ := workload.ByName("jacobi", o.Scale*0.04)
		bigNames := []string{"fsoi", "corona"}
		var bigJobs []simJob
		for _, nodes := range bigNodes {
			for _, name := range bigNames {
				bigJobs = append(bigJobs, simJob{app: bigApp, kind: system.NetOptical, nodes: nodes, tag: name,
					mutate: func(c *system.Config) { c.Optical = name }})
			}
		}
		bms := runGrid(o, bigJobs)
		bt := stats.NewTable("topology", "nodes", "cycles", "mean pkt latency", "delivered")
		idx := 0
		for _, nodes := range bigNodes {
			for _, name := range bigNames {
				m := bms[idx]
				idx++
				bt.AddRow(name, fmt.Sprint(nodes),
					fmt.Sprint(m.Cycles),
					fmt.Sprintf("%.2f", m.Latency.MeanTotal()),
					fmt.Sprint(m.Latency.Delivered))
				vals[fmt.Sprintf("cycles_%s_%d", name, nodes)] = float64(m.Cycles)
			}
		}
		fmt.Fprintf(&b, "\nScale frontier at 256+ nodes (jacobi @ %.3f)\n", o.Scale*0.04)
		b.WriteString(bt.String())
	}

	// The §7.1 headline, from the largest simulated grid.
	refNodes := simNodes[len(simNodes)-1]
	ratio := cyc[fmt.Sprintf("corona_%d", refNodes)] / cyc[fmt.Sprintf("fsoi_%d", refNodes)]
	vals[fmt.Sprintf("fsoi_vs_corona_%d", refNodes)] = ratio
	fmt.Fprintf(&b, "\nFSOI runs %.3fx the token crossbar at %d nodes (paper §7.1: ~1.06x at 64),\n"+
		"and its worst-case loss stays flat in radix while every waveguide crossbar's grows\n",
		ratio, refNodes)

	return Result{
		ID:     "frontier",
		Title:  "Frontier: optical-topology loss/energy/latency sweep",
		Text:   b.String(),
		Values: vals,
	}
}
