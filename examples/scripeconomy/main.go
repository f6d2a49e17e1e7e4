// Scrip economy: lotus-eater attacks on an indirect-reciprocity system.
//
// Rational agents in a scrip system play a threshold strategy — provide
// service only while holding less than k units — so an attacker that keeps
// an agent's balance at k silences it. This example demonstrates the two
// sides of Section 4's "making satiation hard" analysis:
//
//  1. Satiating a few agents who control a rare resource is cheap and
//     devastating for that resource's consumers.
//
//  2. Satiating a large fraction is throttled by the fixed money supply
//     when the attacker must earn its scrip in-system.
//
//     go run ./examples/scripeconomy
package main

import (
	"fmt"
	"log"

	"lotuseater"
)

func main() {
	// Part 1: deny a rare resource by satiating its few providers.
	cfg := lotuseater.DefaultScripConfig()
	cfg.SpecialProviders = 10
	cfg.SpecialRequestFraction = 0.05

	run := func(attacked bool) lotuseater.ScripResult {
		cfg := cfg
		var adv *lotuseater.Strategy
		if attacked {
			targets := make([]int, cfg.SpecialProviders)
			for i := range targets {
				targets[i] = i
			}
			// An attacker with no agents of its own, topping the providers
			// up from a deep pocket from round 1000 on.
			adv = &lotuseater.Strategy{Kind: lotuseater.AttackTrade, TargetList: targets, Start: 1000}
			cfg.AttackBudget = 1 << 20
		}
		sim, err := lotuseater.NewScrip(cfg, 11, adv)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base, hit := run(false), run(true)
	fmt.Println("part 1: satiate the 10 agents who control a rare resource")
	fmt.Printf("  specialty availability, no attack: %.1f%%\n", 100*base.SpecialAvailability)
	fmt.Printf("  specialty availability, attacked:  %.1f%%\n", 100*hit.SpecialAvailability)
	fmt.Printf("  attacker spend: %d scrip (opening supply was %d)\n\n",
		hit.AttackerSpent, cfg.Agents*cfg.MoneyPerCapita)

	// Part 2: try to satiate 60% of the whole economy on earned scrip only.
	// The attacker's 5% of agents earn in-system (alone for the first 1000
	// rounds); any of its own agents among the listed targets are skipped.
	cfg2 := lotuseater.DefaultScripConfig()
	targets := make([]int, int(0.6*float64(cfg2.Agents)))
	for i := range targets {
		targets[i] = i
	}
	earner := &lotuseater.Strategy{Kind: lotuseater.AttackTrade, Fraction: 0.05, TargetList: targets, Start: 1000}
	sim, err := lotuseater.NewScrip(cfg2, 12, earner)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("part 2: satiate 60% of the economy with in-system earnings only")
	fmt.Printf("  fraction of targets actually held satiated: %.1f%%\n", 100*res.SatiatedTargetFraction)
	fmt.Printf("  rounds the attacker ran out of scrip:       %d\n", res.AttackerShortfall)
	fmt.Println("  -> \"there may not even be enough money in the system to satiate")
	fmt.Println("     a significant fraction of the nodes\" (Section 4)")
}
