package gossip

import (
	"fmt"
	"math"
	"strings"
)

// GroupStats summarizes delivery for one population group.
type GroupStats struct {
	// Nodes is the number of nodes that accumulated any measured updates in
	// this group.
	Nodes int
	// MeanDelivery is the average, over nodes in the group, of the fraction
	// of measured updates received before expiry.
	MeanDelivery float64
	// MinDelivery is the worst node's fraction.
	MinDelivery float64
	// UsableFraction is the fraction of nodes in the group whose delivery
	// meets the usability threshold.
	UsableFraction float64
}

// Bandwidth tallies upload volume in update-units.
type Bandwidth struct {
	// UsefulSent counts real updates uploaded by honest and obedient nodes.
	UsefulSent int64
	// JunkSent counts junk payloads uploaded (optimistic-push padding).
	JunkSent int64
	// AttackerSent counts updates uploaded by attacker nodes (the cost of
	// mounting the attack; the paper notes the trade attack "does require
	// enough bandwidth at each attacking node to satiate multiple nodes").
	AttackerSent int64
}

// Result is the outcome of one simulation run.
type Result struct {
	// Cfg echoes the configuration that produced the result.
	Cfg Config
	// MeasuredUpdates is how many updates counted toward statistics.
	MeasuredUpdates int
	// Isolated covers honest nodes outside the satiation target set — the
	// population the paper's figures plot.
	Isolated GroupStats
	// Satiated covers honest nodes inside the satiation target set.
	Satiated GroupStats
	// AllHonest covers every non-attacker node.
	AllHonest GroupStats
	// PerRoundHonest[r] is the fraction of round-r measured updates that
	// the average honest node received in time; -1 for unmeasured rounds.
	PerRoundHonest []float64
	// PerRoundIsolated[r] is the same restricted to nodes isolated at
	// round r (outside the adversary's targets); -1 when unmeasured or
	// empty.
	PerRoundIsolated []float64
	// NodeRoundDelivery[v][r], present only when Config.TrackPerNode is
	// set, is node v's delivered fraction of the updates released in round
	// r (-1 where unmeasured, and for attacker nodes).
	NodeRoundDelivery [][]float64
	// Evictions is how many nodes the reporting defense removed.
	Evictions int
	// Bandwidth tallies upload volumes.
	Bandwidth Bandwidth
}

// Usable reports whether the isolated group's mean delivery meets the
// usability threshold (the paper's ">93% of updates" criterion).
func (r Result) Usable() bool {
	return r.Isolated.MeanDelivery >= r.Cfg.UsableThreshold
}

// String renders a one-look summary.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gossip: %d nodes\n", r.Cfg.Nodes)
	fmt.Fprintf(&b, "  measured updates: %d\n", r.MeasuredUpdates)
	fmt.Fprintf(&b, "  isolated: mean=%.4f min=%.4f usable=%.2f (n=%d)\n",
		r.Isolated.MeanDelivery, r.Isolated.MinDelivery, r.Isolated.UsableFraction, r.Isolated.Nodes)
	fmt.Fprintf(&b, "  satiated: mean=%.4f (n=%d)\n", r.Satiated.MeanDelivery, r.Satiated.Nodes)
	fmt.Fprintf(&b, "  all honest: mean=%.4f (n=%d)\n", r.AllHonest.MeanDelivery, r.AllHonest.Nodes)
	if r.Evictions > 0 {
		fmt.Fprintf(&b, "  evictions: %d\n", r.Evictions)
	}
	fmt.Fprintf(&b, "  bandwidth: useful=%d junk=%d attacker=%d",
		r.Bandwidth.UsefulSent, r.Bandwidth.JunkSent, r.Bandwidth.AttackerSent)
	return b.String()
}

// groupStats derives GroupStats from per-node delivered/total tallies.
func groupStats(delivered, total []int, threshold float64) GroupStats {
	var (
		nodes  int
		sum    float64
		minV   = math.Inf(1)
		usable int
	)
	for i := range delivered {
		if total[i] == 0 {
			continue
		}
		nodes++
		frac := float64(delivered[i]) / float64(total[i])
		sum += frac
		if frac < minV {
			minV = frac
		}
		if frac >= threshold {
			usable++
		}
	}
	if nodes == 0 {
		return GroupStats{}
	}
	return GroupStats{
		Nodes:          nodes,
		MeanDelivery:   sum / float64(nodes),
		MinDelivery:    minV,
		UsableFraction: float64(usable) / float64(nodes),
	}
}
