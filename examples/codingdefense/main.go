// Coding defense: Section 4 of the paper suggests network coding (as in
// Avalanche) as a way to make satiation hard — "nodes need to collect only
// enough independent tokens to reconstruct the full information rather than
// the complete set of tokens".
//
// This example mounts the rare-token attack from Section 3 — satiate the
// sole holders of several source symbols so they stop serving — against two
// otherwise identical gossip systems:
//
//   - plain: nodes trade whole symbols; the attacked symbols are denied to
//     the entire system;
//
//   - coded: nodes trade random linear combinations over GF(2^8); every
//     packet carries information about all symbols, so no symbol is rare
//     and the attack buys nothing.
//
//     go run ./examples/codingdefense
package main

import (
	"fmt"
	"log"

	"lotuseater"
)

func main() {
	const (
		nodes   = 120
		symbols = 24
		rare    = 8 // unique holders the attacker satiates
	)
	// Symbols 0..rare-1 each start on exactly one node; the rest are
	// duplicated across the population.
	alloc := make([]int, nodes)
	for v := range alloc {
		if v < symbols {
			alloc[v] = v
		} else {
			alloc[v] = symbols - 1 - v%(symbols-rare)
		}
	}
	targets := make([]int, rare)
	for i := range targets {
		targets[i] = i
	}

	run := func(coded bool) lotuseater.DisseminationResult {
		cfg := lotuseater.DisseminationConfig{
			Graph:       lotuseater.RegularishGraph(nodes, 4, 99),
			Symbols:     symbols,
			PayloadSize: 64,
			Contacts:    2,
			Rounds:      60,
			Coded:       coded,
			Allocation:  alloc,
		}
		satiate := &lotuseater.Strategy{Kind: lotuseater.AttackIdeal, TargetList: targets}
		sim, err := lotuseater.NewDissemination(cfg, 5, satiate)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	plain := run(false)
	coded := run(true)

	fmt.Printf("rare-token attack: satiate the unique holders of %d of %d symbols\n\n", rare, symbols)
	fmt.Printf("plain token gossip:\n")
	fmt.Printf("  mean file reconstructible: %.1f%%\n", 100*plain.MeanProgress)
	fmt.Printf("  nodes with the whole file: %.1f%%\n\n", 100*plain.CompletedFraction)
	fmt.Printf("random linear network coding:\n")
	fmt.Printf("  mean file reconstructible: %.1f%%\n", 100*coded.MeanProgress)
	fmt.Printf("  nodes with the whole file: %.1f%%\n", 100*coded.CompletedFraction)
	fmt.Printf("  decode verified against sources: %v\n\n", coded.DecodeVerified)
	fmt.Println("under coding there is no rare token to deny: every initial packet")
	fmt.Println("already mixes all source symbols, so silencing any one node's")
	fmt.Println("holdings costs the system (almost) nothing.")
}
