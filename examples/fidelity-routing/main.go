// Fidelity-aware routing (the paper's first listed extension): route
// entanglement under a minimum end-to-end channel fidelity.
//
// Every quantum link delivers a Werner state whose quality decays with
// fiber length, and every BSM swap compounds the degradation. With
// reliable BSMs (high q) the *rate*-optimal channel chains many short
// hops, but each hop costs *fidelity* — so tightening the fidelity floor
// forces the router onto fewer-swap channels at a lower rate. The example
// shows that trade-off on a single user pair, then routes the whole
// multi-user tree under a floor.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	quantumnet "github.com/muerp/quantumnet"
)

func main() {
	topo := quantumnet.DefaultTopology()
	topo.Users = 8
	topo.Switches = 35
	topo.AvgDegree = 8
	g, err := quantumnet.Generate(topo, 1234)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v\n\n", g)

	params := quantumnet.DefaultParams()
	params.SwapProb = 0.95                                  // reliable BSMs: rate favors many short hops...
	model := quantumnet.FidelityModel{W0: 0.94, Beta: 1e-5} // ...but every swap costs fidelity

	prob, err := quantumnet.AllUsersProblem(g, params)
	if err != nil {
		log.Fatal(err)
	}

	// Part 1: one user pair, sweeping the floor. Pick the pair whose
	// unconstrained best channel uses the most swaps.
	src, dst := deepestPair(g, prob, params, model)
	fmt.Printf("channel %d -> %d under increasing fidelity floors:\n", src, dst)
	fmt.Println("  floor | links | rate       | fidelity")
	for _, floor := range []float64{0, 0.80, 0.85, 0.88, 0.90, 0.93, 0.95} {
		router := quantumnet.FidelityRouter{Params: params, Model: model, MinFidelity: floor}
		ch, f, ok := router.MaxRateChannel(g, src, dst, nil)
		if !ok {
			fmt.Printf("  %5.2f |     no feasible channel\n", floor)
			continue
		}
		fmt.Printf("  %5.2f | %5d | %.4e | %.4f\n", floor, ch.Links(), ch.Rate, f)
	}

	// Part 2: the whole multi-user tree under a moderate floor.
	fmt.Println("\nwhole-tree routing:")
	for _, floor := range []float64{0, 0.80, 0.85} {
		router := quantumnet.FidelityRouter{Params: params, Model: model, MinFidelity: floor}
		sol, err := quantumnet.SolveWithFidelity(context.Background(), prob, router)
		if err != nil {
			if errors.Is(err, quantumnet.ErrInfeasible) {
				fmt.Printf("  floor %.2f: infeasible\n", floor)
				continue
			}
			log.Fatal(err)
		}
		if err := router.ValidateSolution(prob, sol); err != nil {
			log.Fatal(err)
		}
		_, worst := router.TreeFidelities(g, sol.Tree)
		fmt.Printf("  floor %.2f: rate %.4e, worst channel fidelity %.4f\n",
			floor, sol.Rate(), worst)
	}
}

// deepestPair returns the user pair whose unconstrained max-rate channel
// has the most links.
func deepestPair(g *quantumnet.Graph, prob *quantumnet.Problem, params quantumnet.Params, model quantumnet.FidelityModel) (quantumnet.NodeID, quantumnet.NodeID) {
	router := quantumnet.FidelityRouter{Params: params, Model: model}
	users := prob.Users
	bestA, bestB := users[0], users[1]
	bestLinks := 0
	for i, a := range users {
		for _, b := range users[i+1:] {
			if ch, _, ok := router.MaxRateChannel(g, a, b, nil); ok && ch.Links() > bestLinks {
				bestLinks, bestA, bestB = ch.Links(), a, b
			}
		}
	}
	return bestA, bestB
}
