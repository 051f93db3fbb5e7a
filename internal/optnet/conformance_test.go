package optnet_test

import (
	"testing"

	"fsoi/internal/mesh"
	"fsoi/internal/noc"
	"fsoi/internal/noc/noctest"
	"fsoi/internal/optnet"
	"fsoi/internal/sim"
)

// TestRegistryConformance runs the shared noc.Network conformance
// harness over every registered optical topology. The Ordered flag
// comes from the registry itself, so a new member declaring in-order
// delivery is held to it automatically.
func TestRegistryConformance(t *testing.T) {
	for _, name := range optnet.Names() {
		topo, _ := optnet.Get(name)
		noctest.Harness{
			Name: name,
			Build: func(engine sim.Scheduler, rng *sim.RNG) noc.Network {
				return topo.Build(16, engine, rng)
			},
			Nodes:   16,
			Ordered: topo.Ordered,
			Seed:    42,
		}.Run(t)
	}
}

// TestMeshConformance holds the electrical baseline to the same
// contract. The mesh injects one packet at a time per source and
// dimension-order routes, but per-hop VC allocation can let a later
// packet overtake an earlier one on the same pair, so it does not
// declare ordered delivery.
func TestMeshConformance(t *testing.T) {
	noctest.Harness{
		Name: "mesh",
		Build: func(engine sim.Scheduler, rng *sim.RNG) noc.Network {
			return mesh.New(mesh.PaperMesh(4), engine)
		},
		Nodes: 16,
		Seed:  42,
	}.Run(t)
}

// TestConformance256 holds the paper's FSOI design and the electrical
// mesh to the transport contract at 256 nodes on the serial engine:
// exactly-once delivery, latency accounting, and same-seed replay —
// the contract that makes the frontier's 256/1024-node runs
// trustworthy.
func TestConformance256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node conformance runs only without -short")
	}
	fsoi, _ := optnet.Get("fsoi")
	noctest.Harness{
		Name: "fsoi-256",
		Build: func(engine sim.Scheduler, rng *sim.RNG) noc.Network {
			return fsoi.Build(256, engine, rng)
		},
		Nodes:       256,
		Seed:        42,
		DrainCycles: 30000,
	}.Run(t)
	noctest.Harness{
		Name: "mesh-256",
		Build: func(engine sim.Scheduler, rng *sim.RNG) noc.Network {
			return mesh.New(mesh.PaperMesh(16), engine)
		},
		Nodes: 256,
		Seed:  42,
		// 256 routers tick every cycle, so the drain bound is the whole
		// cost of the run; injections stop by cycle 400 and the longest
		// 16x16 dimension-order route is well under 1k cycles.
		DrainCycles: 5000,
	}.Run(t)
}

// TestWindowedConformance replays the paper's FSOI design on the
// windowed parallel engine (shard.Windows): the transcript must be
// byte-identical to the engine's own 1-worker replay at 2, 4, and 8
// workers and across three partitions. This is the transport-level
// twin of the full-system worker-invariance tests — it isolates the
// network model from the coherence stack above it.
func TestWindowedConformance(t *testing.T) {
	fsoi, _ := optnet.Get("fsoi")
	noctest.Harness{
		Name: "fsoi-windowed",
		Build: func(engine sim.Scheduler, rng *sim.RNG) noc.Network {
			return fsoi.Build(16, engine, rng)
		},
		Nodes:          16,
		Seed:           42,
		Windowed:       []int{2, 4, 8},
		WindowedShards: []int{4, 2, 8},
	}.Run(t)
}

// TestWindowedConformance256 repeats the windowed replay at 256 nodes
// and 16 shards — the scale the parallel engine exists for.
func TestWindowedConformance256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node windowed conformance runs only without -short")
	}
	fsoi, _ := optnet.Get("fsoi")
	noctest.Harness{
		Name: "fsoi-windowed-256",
		Build: func(engine sim.Scheduler, rng *sim.RNG) noc.Network {
			return fsoi.Build(256, engine, rng)
		},
		Nodes:          256,
		Seed:           42,
		Windowed:       []int{4, 8},
		WindowedShards: []int{16, 8},
		DrainCycles:    30000,
	}.Run(t)
}
