package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckKernelBaseline pins the kernel gate: a row more than
// kernelRegress slower than its baseline fails and is named, a row within
// it passes, rows missing on either side are ignored, and phase
// attributions are never gated.
func TestCheckKernelBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	data, err := json.Marshal(kernelBenchFile{Entries: []KernelBenchResult{
		{Substrate: "gossip", Nodes: 1000, NsPerRound: 1e6},
		{Substrate: "swarm", Nodes: 1000, NsPerRound: 2e6, Phases: map[string]float64{"transfer": 1e5}},
		{Substrate: "gossip-churn", Nodes: 1000, NsPerRound: 1e3}, // no fresh row
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// swarm/n=5000 has no baseline row; the swarm phase is 20x its
	// baseline's.
	fresh := func(gossipNs float64) []KernelBenchResult {
		return []KernelBenchResult{
			{Substrate: "gossip", Nodes: 1000, NsPerRound: gossipNs},
			{Substrate: "swarm", Nodes: 1000, NsPerRound: 2e6, Phases: map[string]float64{"transfer": 2e6}},
			{Substrate: "swarm", Nodes: 5000, NsPerRound: 1e9},
		}
	}
	if err := checkKernelBaseline(fresh(1.2e6), path); err != nil {
		t.Fatalf("a row 20%% slower failed the +25%% gate: %v", err)
	}
	err = checkKernelBaseline(fresh(1.3e6), path)
	if err == nil {
		t.Fatal("a row 30% slower passed the +25% gate")
	}
	if msg := err.Error(); !strings.Contains(msg, "gossip/n=1000") || strings.Contains(msg, "swarm") {
		t.Fatalf("gate error should name gossip/n=1000 and nothing else: %v", err)
	}
}
