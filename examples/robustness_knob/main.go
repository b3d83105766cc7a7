// Command robustness_knob demonstrates the paper's central user-facing
// concept (Sections 3 and 6.5): Gamma is a knob trading nominal optimality
// for robustness. It designs one window of a drifting workload at several
// Gamma values and shows the cost of the design on the window it was built
// for versus the (unknown at design time) next window.
package main

import (
	"context"
	"fmt"
	"log"

	"cliffguard"
)

func main() {
	ctx := context.Background()
	s := cliffguard.Warehouse(1)
	set, err := cliffguard.R1Workload(s, 42)
	if err != nil {
		log.Fatal(err)
	}
	current, next := set.Months[3], set.Months[4]

	db, err := cliffguard.OpenEngine(cliffguard.EngineSpec{Kind: cliffguard.EngineVertica, Schema: s})
	if err != nil {
		log.Fatal(err)
	}
	budget := int64(2560) << 20
	nominal := db.NominalDesigner(budget)

	fmt.Println("Gamma    | this month | next month | structures")
	fmt.Println("---------+------------+------------+-----------")
	for _, gamma := range []float64{0, 0.0005, 0.001, 0.002, 0.004, 0.008} {
		guard, err := cliffguard.New(nominal, db, s, cliffguard.Options{
			Gamma: gamma, Samples: 40, Iterations: 12, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		design, err := guard.Design(ctx, current)
		if err != nil {
			log.Fatal(err)
		}
		cur, _ := cliffguard.WorkloadCost(ctx, db, current, design)
		nxt, _ := cliffguard.WorkloadCost(ctx, db, next, design)
		fmt.Printf("%8.4f | %7.0f ms | %7.0f ms | %d\n",
			gamma, cur/current.TotalWeight(), nxt/next.TotalWeight(), design.Len())
	}
	fmt.Println("\nGamma=0 is the nominal designer; larger Gamma trades a little")
	fmt.Println("nominal optimality for robustness against workload drift.")
}
