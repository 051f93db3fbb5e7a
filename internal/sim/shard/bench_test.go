package shard

import (
	"fmt"
	"testing"

	"fsoi/internal/sim"
)

// BenchmarkWindowsStep measures the windowed engine's serial-replay
// overhead under continuous reschedule churn: per-window pool barriers
// plus the per-node-keyed heaps, with one worker so the number is
// engine overhead, not host parallelism.
func BenchmarkWindowsStep(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			nodes := k * 8
			w := NewWindows(k, 1)
			defer w.Close()
			w.AssignNodes(nodes)
			w.SetLookahead(2)
			scheds := make([]sim.Scheduler, nodes)
			for i := range scheds {
				scheds[i] = w.ForNode(i)
			}
			fns := make([]func(now sim.Cycle), nodes)
			for i := range fns {
				i := i
				fns[i] = func(now sim.Cycle) { scheds[i].After(sim.Cycle(int(now)%31+1), fns[i]) }
			}
			for i := 0; i < 4096; i++ {
				scheds[i%nodes].After(sim.Cycle(i%63+1), fns[i%nodes])
			}
			w.Run(64)
			b.ReportAllocs()
			b.ResetTimer()
			w.Run(sim.Cycle(b.N))
		})
	}
}
