// File sharing: why the lotus-eater attack "seems likely to do
// significantly less damage" in BitTorrent (Section 1), and how rarest-first
// piece selection keeps an attacker from manufacturing a "last pieces
// problem".
//
//	go run ./examples/filesharing
package main

import (
	"fmt"
	"log"

	"lotuseater"
)

func run(cfg lotuseater.SwarmConfig, seed uint64, adv *lotuseater.Strategy) lotuseater.SwarmResult {
	sim, err := lotuseater.NewSwarm(cfg, seed, adv)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	// Part 1: satiate the swarm's 8 best uploaders. Completed leechers keep
	// seeding, so the attacker's bandwidth is a donation. The attacker
	// controls no leecher: it uploads from outside, best-ranked target
	// first.
	base := lotuseater.DefaultSwarmConfig()
	attacked := base
	attacked.AttackerUplink = 32
	topUploaders := &lotuseater.Strategy{
		Kind:            lotuseater.AttackIdeal,
		SatiateFraction: 8 / float64(base.Leechers),
		Rank:            "uploaders",
	}

	b, a := run(base, 1, nil), run(attacked, 1, topUploaders)
	fmt.Println("part 1: satiate the top uploaders of a healthy swarm")
	fmt.Printf("  no attack:  %.0f%% complete, mean %.0f ticks\n", 100*b.CompletedFraction, b.MeanCompletionTick)
	fmt.Printf("  attacked:   %.0f%% complete, mean %.0f ticks\n", 100*a.CompletedFraction, a.MeanCompletionTick)
	fmt.Println("  -> the attack is \"often actually a net benefit to the torrent\"")
	fmt.Println()

	// Part 2: the rare-piece campaign against a fragile swarm (initial seed
	// departs; finished leechers leave). The attacker satiates the 2
	// holders of the rarest pieces from tick 10 until the seed leaves at
	// tick 60. Compare piece-selection policies.
	fragile := base
	fragile.SeedDepartTick = 60
	fragile.SeedAfterComplete = false
	fragile.Ticks = 600
	fragile.AttackerUplink = 64
	rareHolders := func() *lotuseater.Strategy {
		return &lotuseater.Strategy{
			Kind:            lotuseater.AttackIdeal,
			SatiateFraction: 2 / float64(base.Leechers),
			Rank:            "rarest",
			Start:           10,
			Stop:            60,
		}
	}

	random := fragile
	random.Selection = lotuseater.SwarmSelectRandom

	fmt.Println("part 2: remove rare-piece carriers before the seed departs")
	var rfLost, rndLost, rfDone, rndDone float64
	const seeds = 5
	for s := uint64(0); s < seeds; s++ {
		rf := run(fragile, 10+s, rareHolders())
		rnd := run(random, 10+s, rareHolders())
		rfLost += float64(rf.LostPieces)
		rndLost += float64(rnd.LostPieces)
		rfDone += rf.CompletedFraction
		rndDone += rnd.CompletedFraction
	}
	fmt.Printf("  rarest-first: %.0f%% complete, %.1f pieces lost (avg of %d runs)\n",
		100*rfDone/seeds, rfLost/seeds, seeds)
	fmt.Printf("  random:       %.0f%% complete, %.1f pieces lost\n",
		100*rndDone/seeds, rndLost/seeds)
	fmt.Println("  -> even a targeted campaign barely dents the swarm; the attacker")
	fmt.Println("     must donate the full file to each leecher it removes")
}
