package config

import (
	"os"
	"path/filepath"
	"testing"

	"fsoi/internal/system"
	"fsoi/internal/thermal"
)

func TestParseDefaults(t *testing.T) {
	s, err := Parse([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 16 || cfg.Net != system.NetFSOI {
		t.Fatalf("defaults wrong: nodes=%d net=%v", cfg.Nodes, cfg.Net)
	}
	app, scale := s.AppAndScale()
	if app != "jacobi" || scale != 0.5 {
		t.Fatalf("workload defaults: %s %g", app, scale)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"nodse": 16}`)); err == nil {
		t.Fatal("typos must fail loudly")
	}
}

func TestBuildOverrides(t *testing.T) {
	s, err := Parse([]byte(`{
		"nodes": 64,
		"network": "fsoi",
		"app": "mp3d",
		"scale": 0.25,
		"seed": 9,
		"meta_vcsels": 2,
		"data_vcsels": 7,
		"receivers": 3,
		"window_w": 3.5,
		"backoff_b": 1.2,
		"memory_gbps": 52.8,
		"trace_packets": 32,
		"optimizations": {"ack_elision": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 64 || cfg.Seed != 9 {
		t.Fatal("node/seed overrides lost")
	}
	if cfg.FSOI.MetaVCSELs != 2 || cfg.FSOI.DataVCSELs != 7 || cfg.FSOI.Receivers != 3 {
		t.Fatal("lane overrides lost")
	}
	if cfg.FSOI.WindowW != 3.5 || cfg.FSOI.BackoffB != 1.2 {
		t.Fatal("backoff overrides lost")
	}
	if cfg.Memory.TotalGBps != 52.8 || cfg.TracePackets != 32 {
		t.Fatal("memory/trace overrides lost")
	}
	if !cfg.FSOI.Opt.AckElision || cfg.FSOI.Opt.RetransmitHints {
		t.Fatal("explicit optimizations must replace the default set")
	}
	app, scale := s.AppAndScale()
	if app != "mp3d" || scale != 0.25 {
		t.Fatal("workload overrides lost")
	}
}

func TestBuildRejectsBadNetwork(t *testing.T) {
	s := Spec{Network: "hypercube"}
	if _, err := s.Build(); err == nil {
		t.Fatal("unknown network must error")
	}
}

func TestBuildValidatesFSOI(t *testing.T) {
	s := Spec{Network: "fsoi", WindowW: 0.1} // below one slot
	if _, err := s.Build(); err == nil {
		t.Fatal("invalid FSOI config must error")
	}
}

// TestBuildRejectsShardsWithoutParWorkers: "shards" partitions the
// windowed engine, so a spec naming shards without par_workers is an
// error, not a silent serial run; with par_workers it builds.
func TestBuildRejectsShardsWithoutParWorkers(t *testing.T) {
	spec, err := Parse([]byte(`{"nodes": 16, "network": "fsoi", "shards": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Build(); err == nil {
		t.Fatal("shards without par_workers must error")
	}
	spec.ParWorkers = 2
	cfg, err := spec.Build()
	if err != nil {
		t.Fatalf("shards with par_workers rejected: %v", err)
	}
	if cfg.Shards != 4 || cfg.ParWorkers != 2 {
		t.Fatalf("engine selection not carried over: shards %d, par_workers %d", cfg.Shards, cfg.ParWorkers)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(`{"network":"mesh","nodes":16}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Net != system.NetMesh {
		t.Fatal("network lost in round trip")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing files must error")
	}
}

func TestBuildFaultSection(t *testing.T) {
	s, err := Parse([]byte(`{
		"max_backoff_slots": 128,
		"confirm_timeout_slots": 6,
		"faults": {
			"margin_penalty_db": 2.5,
			"vcsel_fail_prob": 0.05,
			"confirm_drop_prob": 0.02,
			"droop_db_per_k": 0.03,
			"thermal_cooling": "microchannel"
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FSOI.MaxBackoffSlots != 128 || cfg.FSOI.ConfirmTimeoutSlots != 6 {
		t.Fatal("backoff cap / confirm timeout overrides lost")
	}
	f := cfg.Fault
	if !f.Enabled() {
		t.Fatal("fault section must enable injection")
	}
	if f.MarginPenaltyDB != 2.5 || f.VCSELFailProb != 0.05 || f.ConfirmDropProb != 0.02 {
		t.Fatal("fault knobs lost")
	}
	if !f.Thermal.Enabled || f.Thermal.Cooling != thermal.Microchannel {
		t.Fatal("thermal cooling lost")
	}
	if f.Thermal.PowerPerNodeW != 4 || f.Thermal.TauCycles != 100000 {
		t.Fatal("thermal defaults not applied")
	}
}

func TestBuildFaultOmittedStaysDisabled(t *testing.T) {
	s, err := Parse([]byte(`{"network": "fsoi"}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fault.Enabled() {
		t.Fatal("no faults section must mean no injection")
	}
}

func TestBuildFaultRejectsBadSections(t *testing.T) {
	bad := []string{
		`{"faults": {"margin_penalty_db": -1}}`,
		`{"faults": {"vcsel_fail_prob": 1.5}}`,
		`{"faults": {"thermal_cooling": "peltier", "droop_db_per_k": 0.1}}`,
		`{"faults": {"thermal_power_w": 4}}`,
	}
	for i, js := range bad {
		s, err := Parse([]byte(js))
		if err != nil {
			t.Fatalf("case %d failed to parse: %v", i, err)
		}
		if _, err := s.Build(); err == nil {
			t.Errorf("case %d: bad fault section must error", i)
		}
	}
}
