// Command drifting_warehouse replays a year of drifting analytical workload
// (the R1-like generator calibrated to the paper's Table 1) against the
// columnar engine, re-designing monthly with the nominal designer and with
// CliffGuard, and reports month-by-month latencies — a miniature of the
// paper's Figure 7(a) experiment.
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
	fmt.Printf("warehouse: %d tables, %d columns\n", len(s.Tables()), s.NumColumns())

	set, err := cliffguard.R1Workload(s, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d queries over %d monthly windows\n", len(set.Queries), len(set.Months))
	fmt.Printf("calibrated month-over-month drift (delta_euclidean): %.4f..%.4f\n\n",
		minF(set.AchievedDrift), maxF(set.AchievedDrift))

	db, err := cliffguard.OpenEngine(cliffguard.EngineSpec{Kind: cliffguard.EngineVertica, Schema: s})
	if err != nil {
		log.Fatal(err)
	}
	budget := int64(2560) << 20
	nominal := db.NominalDesigner(budget)
	guard, err := cliffguard.New(nominal, db, s, cliffguard.Options{
		Gamma: 0.002, Samples: 40, Iterations: 12, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The paper evaluates only "designable" queries: those some ideal design
	// speeds up by at least 3x (515 of R1's 15.5K parseable queries).
	provider := nominal.(cliffguard.CandidateProvider)
	months := make([]*cliffguard.Workload, len(set.Months))
	for i, m := range set.Months {
		months[i] = cliffguard.FilterDesignable(ctx, db, provider, m, 3)
	}

	fmt.Println("month | nominal avg | cliffguard avg | (designing on month i, measuring on month i+1)")
	var nomTotal, cgTotal float64
	for i := 0; i+1 < len(months); i++ {
		input, next := months[i], months[i+1]
		nd, err := nominal.Design(ctx, input)
		if err != nil {
			log.Fatal(err)
		}
		cd, err := guard.Design(ctx, input)
		if err != nil {
			log.Fatal(err)
		}
		nomMs := perQuery(db, next, nd)
		cgMs := perQuery(db, next, cd)
		nomTotal += nomMs
		cgTotal += cgMs
		fmt.Printf("%5d | %8.0f ms | %11.0f ms\n", i+1, nomMs, cgMs)
	}
	n := float64(len(months) - 1)
	fmt.Printf("\naverage: nominal %.0f ms, cliffguard %.0f ms (%.1fx)\n",
		nomTotal/n, cgTotal/n, nomTotal/cgTotal)
}

// perQuery returns the mean per-query latency of the workload under the design.
func perQuery(db cliffguard.CostModel, w *cliffguard.Workload, d *cliffguard.Design) float64 {
	total, err := cliffguard.WorkloadCost(context.Background(), db, w, d)
	if err != nil {
		log.Fatal(err)
	}
	return total / w.TotalWeight()
}

func minF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
