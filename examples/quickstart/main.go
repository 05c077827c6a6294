// Quickstart: generate a paper-default quantum network, route multi-user
// entanglement with the conflict-free heuristic (Algorithm 3), and print
// the resulting entanglement tree and rate.
package main

import (
	"context"
	"fmt"
	"log"

	quantumnet "github.com/muerp/quantumnet"
)

func main() {
	// A Waxman network in a 10,000 x 10,000 km area: 10 users, 50 switches
	// with 4 qubits each, average degree 6 — the paper's defaults.
	g, err := quantumnet.Generate(quantumnet.DefaultTopology(), 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(g)

	// Entangle every user in the network.
	prob, err := quantumnet.AllUsersProblem(g, quantumnet.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	sol, err := quantumnet.Solve(context.Background(), "alg3", prob, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("entanglement rate: %.4e\n", sol.Rate())
	for i, ch := range sol.Tree.Channels {
		a, b := ch.Endpoints()
		fmt.Printf("  channel %d: user %d <-> user %d over %d links (rate %.3f)\n",
			i, a, b, ch.Links(), ch.Rate)
	}

	// Cross-check the analytic rate with 100k stochastic rounds.
	mc, err := quantumnet.Simulate(g, sol, quantumnet.DefaultParams(), 100_000, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monte carlo:       %.4e (analytic %.4e)\n", mc.Rate, mc.Analytic)
}
