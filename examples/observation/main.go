// Observation 3.1, executable: "In a system where a satiation-compatible
// protocol is used, an attacker that can provide a node with tokens
// sufficiently rapidly can prevent it from ever providing service."
//
// This example runs the observation on the Section 3 token-collecting model
// (G, T, sat, f, c, a): 30 nodes on a complete graph, 4 tokens, 2 contacts
// per round, and node 0 the only holder of token 0. An ideal attacker gives
// node 0 every token each round, so node 0 is satiated and, at altruism
// a = 0, never answers: token 0 never leaves it. Any a > 0 breaks
// satiation-compatibility, and with it the observation's premise.
//
//	go run ./examples/observation
package main

import (
	"fmt"
	"log"

	"lotuseater"
)

const (
	nodes    = 30
	tokens   = 4
	contacts = 2
	rounds   = 50
	seed     = 5
)

func main() {
	// f: node 0 holds the rare token 0; the others hold tokens 1..3 in turn.
	alloc := make([]int, nodes)
	for v := 1; v < nodes; v++ {
		alloc[v] = 1 + (v-1)%(tokens-1)
	}
	fmt.Printf("%d nodes on a complete graph, %d tokens, %d contacts/round, %d rounds\n", nodes, tokens, contacts, rounds)
	fmt.Printf("node 0 alone holds token 0\n\n")
	fmt.Println("ideal attack on node 0   nodes holding token 0   completed")
	for _, a := range []float64{0, 0.1, 0.3} {
		run(a, alloc)
	}
}

// run builds the model at altruism a with an ideal attacker satiating node
// 0 every round, runs it to the horizon and prints how far token 0 got.
func run(a float64, alloc []int) {
	cfg := lotuseater.TokenModelConfig{
		Graph:      lotuseater.CompleteGraph(nodes),
		Tokens:     tokens,
		Contacts:   contacts,
		Altruism:   a,
		Rounds:     rounds,
		Allocation: alloc,
	}
	adv := &lotuseater.Strategy{Kind: lotuseater.AttackIdeal, TargetList: []int{0}}
	sim, err := lotuseater.NewTokenModel(cfg, seed, adv)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	holders := int(res.TokenCoverage[0]*nodes + 0.5)
	note := ""
	if a == 0 {
		note = "   << node 0 never serves (Observation 3.1)"
	}
	fmt.Printf("  altruism a = %.1f        %2d/%d                  %5.1f%%%s\n",
		a, holders, nodes, 100*res.CompletedFraction, note)
}
