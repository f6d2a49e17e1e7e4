// Streaming: the paper's motivating scenario for BAR Gossip is streaming
// video, where updates are frames with hard deadlines. This example shows
// the remark at the end of Section 2: "by changing who is satiated over
// time, the attacker could even make the service intermittently unusable
// for all nodes."
//
// It runs the "rotating" figure — the same attack twice, once with a
// static satiated set, once re-drawing the set every 20 rounds — and
// prints, per arm, how many viewing windows dropped below the 93%
// usability threshold.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"strconv"

	"lotuseater"
)

func main() {
	a, err := lotuseater.RunFigure("rotating", 7, lotuseater.RunOptions{Replicates: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ideal lotus-eater attack on a streaming service (8% attacker nodes)")
	fmt.Printf("usability threshold: 93%% of frames per 20-round window\n\n")
	header := a.Table[0]
	for _, row := range a.Table[1:] {
		v := map[string]float64{}
		for i, cell := range row[1:] {
			v[header[i+1]], err = strconv.ParseFloat(cell, 64)
			if err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%-9s satiated set:\n", row[0])
		fmt.Printf("  mean delivery:           %.1f%%\n", 100*v["mean-delivery"])
		fmt.Printf("  viewers hit by an outage: %.0f%%\n", 100*v["nodes-with-outage"])
		fmt.Printf("  outage windows per viewer: %.2f of %.0f\n\n", v["mean-outage-epochs"], v["epochs"])
	}
	fmt.Println("static targeting starves a fixed minority; rotating the satiated set")
	fmt.Println("spreads the outages over (nearly) every viewer — the stream becomes")
	fmt.Println("intermittently unusable for all, exactly as the paper warns.")
}
