// Command quickstart shows the core CliffGuard workflow in one file:
// define a schema, parse a SQL workload, ask the nominal designer and
// CliffGuard for designs, and compare how each serves a drifted future
// workload.
package main

import (
	"context"
	"fmt"
	"log"

	"cliffguard"
)

func main() {
	ctx := context.Background()
	// A small warehouse: one fact table and the star around it.
	s, err := cliffguard.NewSchema([]cliffguard.TableDef{
		{
			Name: "orders", Fact: true, Rows: 1_000_000,
			Columns: []cliffguard.ColumnDef{
				{Name: "order_id", Type: cliffguard.Int64, Cardinality: 1_000_000},
				{Name: "customer_id", Type: cliffguard.Int64, Cardinality: 50_000},
				{Name: "product_id", Type: cliffguard.Int64, Cardinality: 10_000},
				{Name: "store_id", Type: cliffguard.Int64, Cardinality: 400},
				{Name: "order_date", Type: cliffguard.Int64, Cardinality: 365},
				{Name: "region", Type: cliffguard.String, Cardinality: 20},
				{Name: "status", Type: cliffguard.String, Cardinality: 6},
				{Name: "quantity", Type: cliffguard.Int64, Cardinality: 100},
				{Name: "unit_price", Type: cliffguard.Float64, Cardinality: 5_000},
				{Name: "total", Type: cliffguard.Float64, Cardinality: 100_000},
				{Name: "discount", Type: cliffguard.Float64, Cardinality: 100},
				{Name: "tax", Type: cliffguard.Float64, Cardinality: 1_000},
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	parser := cliffguard.NewParser(s)
	parse := func(sql string) *cliffguard.Query {
		q, err := parser.Parse(sql)
		if err != nil {
			log.Fatalf("parsing %q: %v", sql, err)
		}
		return q
	}

	// This month's analytical workload.
	past := cliffguard.NewWorkload(
		parse("SELECT region, COUNT(*), SUM(total) FROM orders WHERE store_id = 17 GROUP BY region"),
		parse("SELECT product_id, quantity, total FROM orders WHERE order_date BETWEEN 100 AND 130"),
		parse("SELECT customer_id, SUM(total) FROM orders WHERE region = 'v3' GROUP BY customer_id"),
		parse("SELECT order_id, total FROM orders WHERE customer_id = 4211 ORDER BY total DESC LIMIT 100"),
	)

	// Next month the analysts pivot: similar questions, drifted columns.
	future := cliffguard.NewWorkload(
		parse("SELECT region, COUNT(*), SUM(total), AVG(discount) FROM orders WHERE store_id = 23 GROUP BY region"),
		parse("SELECT product_id, quantity, total, tax FROM orders WHERE order_date BETWEEN 130 AND 160"),
		parse("SELECT customer_id, SUM(total) FROM orders WHERE status = 'v2' GROUP BY customer_id"),
		parse("SELECT order_id, total, unit_price FROM orders WHERE customer_id = 977 ORDER BY total DESC LIMIT 100"),
	)

	db, err := cliffguard.OpenEngine(cliffguard.EngineSpec{Kind: cliffguard.EngineVertica, Schema: s})
	if err != nil {
		log.Fatal(err)
	}
	budget := int64(96) << 20

	nominal := db.NominalDesigner(budget)
	nominalDesign, err := nominal.Design(ctx, past)
	if err != nil {
		log.Fatal(err)
	}

	guard, err := cliffguard.New(nominal, db, s, cliffguard.Options{
		Gamma: 0.004, Samples: 48, Iterations: 12, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	robustDesign, err := guard.Design(ctx, past)
	if err != nil {
		log.Fatal(err)
	}

	report := func(name string, d *cliffguard.Design) {
		pastMs, _ := cliffguard.WorkloadCost(ctx, db, past, d)
		futureMs, _ := cliffguard.WorkloadCost(ctx, db, future, d)
		fmt.Printf("%-22s %2d structures, %4d MB | this month %6.0f ms | next month %6.0f ms\n",
			name, d.Len(), d.SizeBytes()>>20, pastMs, futureMs)
	}
	fmt.Println("Designing for this month's workload, then measuring both months:")
	report("no design", &cliffguard.Design{})
	report("nominal designer", nominalDesign)
	report("CliffGuard (G=0.004)", robustDesign)
}
