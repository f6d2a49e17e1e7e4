// Quickstart: run BAR Gossip healthy, then under a trade lotus-eater
// attack, and compare what the isolated nodes receive.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"lotuseater"
)

func main() {
	// Table 1 of the paper: 250 nodes, 10 updates/round, lifetime 10,
	// 12 copies seeded, push size 2.
	cfg := lotuseater.DefaultGossipConfig()

	healthy, err := lotuseater.NewGossip(cfg, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	base, err := healthy.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthy system:       %.1f%% of updates delivered\n",
		100*base.AllHonest.MeanDelivery)

	// The trade lotus-eater attack: the attacker controls 25% of the nodes
	// and gives a targeted 70% of the system every update it holds, while
	// giving the rest nothing. No protocol message is ever violated — the
	// attacker is simply "too nice" to the chosen nodes.
	trade := &lotuseater.Strategy{Kind: lotuseater.AttackTrade, Fraction: 0.25, SatiateFraction: 0.70}

	attacked, err := lotuseater.NewGossip(cfg, 1, trade)
	if err != nil {
		log.Fatal(err)
	}
	res, err := attacked.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("satiated nodes:       %.1f%% delivered (the attacker's favorites)\n",
		100*res.Satiated.MeanDelivery)
	fmt.Printf("isolated nodes:       %.1f%% delivered\n",
		100*res.Isolated.MeanDelivery)
	fmt.Printf("stream usable (>%.0f%%) for isolated nodes: %v\n",
		100*cfg.UsableThreshold, res.Usable())
	fmt.Printf("attacker bandwidth:   %d updates uploaded\n", res.Bandwidth.AttackerSent)
}
