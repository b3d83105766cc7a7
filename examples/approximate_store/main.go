// Command approximate_store demonstrates CliffGuard's black-box generality
// (the paper's concluding direction): the identical robust loop drives a
// third, structurally different design problem — stratified-sample selection
// in an approximate query engine — without any change to the algorithm.
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
	parser := cliffguard.NewParser(s)
	parse := func(sql string) *cliffguard.Query {
		q, err := parser.Parse(sql)
		if err != nil {
			log.Fatalf("parsing %q: %v", sql, err)
		}
		return q
	}

	// This month's approximate-analytics workload: aggregates that tolerate
	// sampled answers.
	past := cliffguard.NewWorkload(
		parse("SELECT region, COUNT(*), SUM(total) FROM sales WHERE channel = 'v2' GROUP BY region"),
		parse("SELECT store_id, AVG(total) FROM sales WHERE region = 'v7' GROUP BY store_id"),
		parse("SELECT payment_type, COUNT(*) FROM sales WHERE loyalty_tier = 'v1' GROUP BY payment_type"),
	)
	// Next month the pivots drift.
	future := cliffguard.NewWorkload(
		parse("SELECT region, COUNT(*), SUM(total) FROM sales WHERE device = 'v3' GROUP BY region"),
		parse("SELECT store_id, AVG(total) FROM sales WHERE order_priority = 'v2' GROUP BY store_id"),
		parse("SELECT payment_type, COUNT(*), MAX(total) FROM sales WHERE loyalty_tier = 'v1' GROUP BY payment_type"),
	)

	db, err := cliffguard.OpenEngine(cliffguard.EngineSpec{Kind: cliffguard.EngineApprox, Schema: s})
	if err != nil {
		log.Fatal(err)
	}
	budget := int64(128) << 20
	nominal := db.NominalDesigner(budget)

	nominalDesign, err := nominal.Design(ctx, past)
	if err != nil {
		log.Fatal(err)
	}
	guard, err := cliffguard.New(nominal, db, s, cliffguard.Options{
		Gamma: 0.004, Samples: 48, Iterations: 12, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	robustDesign, err := guard.Design(ctx, past)
	if err != nil {
		log.Fatal(err)
	}

	report := func(name string, d *cliffguard.Design) {
		p, _ := cliffguard.WorkloadCost(ctx, db, past, d)
		f, _ := cliffguard.WorkloadCost(ctx, db, future, d)
		fmt.Printf("%-22s %d samples, %4d MB | this month %6.0f ms | next month %6.0f ms\n",
			name, d.Len(), d.SizeBytes()>>20, p, f)
	}
	fmt.Println("Stratified-sample selection (approximate query engine):")
	report("no design", &cliffguard.Design{})
	report("nominal designer", nominalDesign)
	report("CliffGuard", robustDesign)
	fmt.Println("\nSame CliffGuard loop, third structure type — nothing in the")
	fmt.Println("algorithm knows whether it is hedging projections, indices, or samples.")
	fmt.Println("(With only three queries there is little drift signal to hedge; the")
	fmt.Println("point here is the unchanged API. See examples/drifting_warehouse for")
	fmt.Println("the robustness effect at workload scale.)")
}
