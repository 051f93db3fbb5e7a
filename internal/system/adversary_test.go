package system

import (
	"fmt"
	"strings"
	"testing"

	"fsoi/internal/adversary"
	"fsoi/internal/obs"
	"fsoi/internal/workload"
)

// jammerRoster is the resilience sweep's attack shape: two hostile
// nodes at the top of the id range (both receiver parities) storming
// lines homed at node 0.
func jammerRoster(role adversary.Role, nodes int, intensity float64) []adversary.Spec {
	return []adversary.Spec{
		{Role: role, Node: nodes - 1, Victims: []int{0}, Intensity: intensity},
		{Role: role, Node: nodes - 2, Victims: []int{0}, Intensity: intensity},
	}
}

// runAttack executes one detection-enabled 16-node run at a scale large
// enough for the windowed detector to see past its warm-up exclusion.
// workers 0 selects the serial engine; workers > 0 the windowed engine
// over the given shard partition.
func runAttack(t *testing.T, workers, shards int, specs []adversary.Spec) Metrics {
	t.Helper()
	app, ok := workload.ByName("jacobi", 0.1)
	if !ok {
		t.Fatal("unknown app jacobi")
	}
	cfg := Default(16, NetFSOI)
	cfg.MaxCycles = 3_000_000
	cfg.Detect = true
	cfg.ParWorkers = workers
	cfg.Shards = shards
	cfg.Adversaries = specs
	m := New(cfg).Run(app)
	if !m.Finished {
		t.Fatalf("run with %d adversaries did not finish", len(specs))
	}
	return m
}

func TestJammerDegradesHonestTrafficAndIsDetected(t *testing.T) {
	control := runAttack(t, 0, 0, nil)
	if n := len(control.Detection.Flagged); n != 0 {
		t.Fatalf("attack-free control flagged %d links: %+v", n, control.Detection.Flagged)
	}
	if control.AdversaryNodes != 0 || control.HonestFinish != 0 {
		t.Fatal("adversary metrics must stay zero without a roster")
	}

	m := runAttack(t, 0, 0, jammerRoster(adversary.RoleJammer, 16, 0.9))
	if m.AdversaryNodes != 2 {
		t.Fatalf("want 2 adversary nodes, got %d", m.AdversaryNodes)
	}
	if m.HonestFinish <= control.Cycles {
		t.Fatalf("collision storm must delay honest cores: honest finish %d vs control %d",
			m.HonestFinish, control.Cycles)
	}
	if m.Latency.MeanTotal() <= control.Latency.MeanTotal() {
		t.Fatalf("collision storm must raise mean latency: %.2f vs %.2f",
			m.Latency.MeanTotal(), control.Latency.MeanTotal())
	}
	if m.FSOI.SpoofedHeaders != 0 || m.FSOI.StarvedConfirms != 0 {
		t.Fatal("a pure-traffic jammer must not touch the optical layer")
	}
	if len(m.Detection.Flagged) == 0 {
		t.Fatal("detector missed the collision storm entirely")
	}
	// Precision: every flag must localize the attack — a link touching
	// an attacker, or inbound at the victim.
	hostile := map[int]bool{15: true, 14: true}
	for _, f := range m.Detection.Flagged {
		if !hostile[f.Src] && !hostile[f.Dst] && f.Dst != 0 {
			t.Errorf("false positive on bystander link %d->%d (%s)", f.Src, f.Dst, f.Reason)
		}
	}
	// Recall: at least one of the attackers' own transmit links flagged.
	attacker := false
	for _, f := range m.Detection.Flagged {
		if hostile[f.Src] {
			attacker = true
		}
	}
	if !attacker {
		t.Fatal("no attacker transmit link flagged: blame landed only on symptoms")
	}
}

func TestSpooferAndStarverTouchTheOpticalLayer(t *testing.T) {
	sp := runAttack(t, 0, 0, jammerRoster(adversary.RoleSpoofer, 16, 0.3))
	if sp.FSOI.SpoofedHeaders == 0 {
		t.Fatal("spoofer forged no headers")
	}
	if sp.FSOI.StarvedConfirms != 0 {
		t.Fatal("spoofer must not starve confirmations")
	}

	st := runAttack(t, 0, 0, jammerRoster(adversary.RoleStarver, 16, 0.6))
	if st.FSOI.StarvedConfirms == 0 {
		t.Fatal("starver suppressed no confirmations")
	}
	confirm := false
	for _, f := range st.Detection.Flagged {
		if f.Dst == 0 && hasReasonPart(f, "confirm") {
			confirm = true
		}
	}
	if !confirm {
		t.Fatalf("no victim-inbound link flagged for confirmation loss: %+v", st.Detection.Flagged)
	}
}

// hasReasonPart reports whether the "+"-joined reason list contains one
// specific rule name.
func hasReasonPart(f obs.LinkProfile, want string) bool {
	for _, r := range strings.Split(f.Reason, "+") {
		if r == want {
			return true
		}
	}
	return false
}

// TestAdversaryRunsAreDeterministicAndShardEquivalent: a jammed,
// detection-enabled run replays byte-identically from its seed on the
// serial engine, and on the windowed engine its canonical listing —
// detector verdicts included — is invariant across worker and shard
// counts (the resilience-smoke CI job's in-repo twin).
func TestAdversaryRunsAreDeterministicAndShardEquivalent(t *testing.T) {
	roster := jammerRoster(adversary.RoleJammer, 16, 0.9)
	serial := runAttack(t, 0, 0, roster)
	again := runAttack(t, 0, 0, roster)
	if a, b := serial.Canonical(), again.Canonical(); a != b {
		diffLines(t, "same-seed adversary canonical", a, b)
	}
	ref := runAttack(t, 1, 0, roster)
	if len(ref.Detection.Flagged) == 0 {
		t.Fatal("windowed run: detector missed the collision storm")
	}
	for _, shards := range []int{2, 4} {
		got := runAttack(t, 2, shards, roster)
		if a, b := ref.Canonical(), got.Canonical(); a != b {
			diffLines(t, fmt.Sprintf("windowed 2-worker %d-shard adversary canonical", shards), a, b)
		}
	}
}

func TestAdversaryRosterRejectedAtBuild(t *testing.T) {
	for _, bad := range [][]adversary.Spec{
		{{Role: adversary.RoleJammer, Node: 15, Victims: []int{15}, Intensity: 0.5}}, // self-targeting
		{{Role: adversary.RoleJammer, Node: 99, Victims: []int{0}, Intensity: 0.5}},  // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid roster %+v accepted", bad)
				}
			}()
			cfg := Default(16, NetFSOI)
			cfg.Adversaries = bad
			New(cfg)
		}()
	}
}
