// Distributed quantum computing scenario (the paper's §I motivation):
// a cluster of monolithic quantum processors, each limited to ~127 qubits,
// must be entangled over switches and fibers to act as one larger machine.
//
// The example builds a metropolitan-scale network, compares all five
// routing schemes on the same instance, and then actually executes the best
// plan with the distributed §II-B runtime, where every processor and switch
// runs as its own goroutine exchanging classical control messages.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	quantumnet "github.com/muerp/quantumnet"
)

func main() {
	// A denser, smaller-area deployment than the wide-area default:
	// 8 processors (users) across a 2,000 km region, 30 switches.
	topo := quantumnet.DefaultTopology()
	topo.Users = 8
	topo.Switches = 30
	topo.Area = 2000
	topo.AvgDegree = 5
	topo.SwitchQubits = 4

	g, err := quantumnet.Generate(topo, 2026)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quantum data center interconnect: %v\n\n", g)

	prob, err := quantumnet.AllUsersProblem(g, quantumnet.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}

	// Compare every scheme on the same instance.
	fmt.Println("routing scheme comparison:")
	best := ""
	bestRate := -1.0
	for _, name := range quantumnet.Solvers() {
		sol, err := quantumnet.Solve(context.Background(), name, prob, nil)
		if err != nil {
			if errors.Is(err, quantumnet.ErrInfeasible) {
				fmt.Printf("  %-8s infeasible under switch capacity\n", name)
				continue
			}
			log.Fatal(err)
		}
		fmt.Printf("  %-8s rate %.4e over %d channels\n",
			name, sol.Rate(), len(sol.Tree.Channels))
		// Track the best *implementable* scheme: alg2 assumes boosted
		// switches, so prefer the capacity-aware ones for deployment.
		if name != "alg2" && sol.Rate() > bestRate {
			best, bestRate = name, sol.Rate()
		}
	}
	if best == "" {
		log.Fatal("no scheme produced a deployable plan")
	}

	// Execute the winning plan distributed: processors request entanglement,
	// the controller routes and disseminates, switches perform heralded BSMs
	// in synchronized rounds.
	fmt.Printf("\nexecuting %s distributed (every node is a goroutine):\n", best)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	report, err := quantumnet.RunDistributed(ctx, g, best, 20_000, 2026)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  rounds:          %d\n", report.Rounds)
	fmt.Printf("  cluster-wide entanglement delivered in %d rounds (%.2f%%)\n",
		report.Successes, 100*report.EmpiricalRate())
	fmt.Printf("  analytic rate:   %.4e\n", report.AnalyticRate())
	fmt.Printf("  empirical rate:  %.4e\n", report.EmpiricalRate())
	fmt.Printf("  BSM swaps tried: %d\n", report.SwapsAttempted)
}
