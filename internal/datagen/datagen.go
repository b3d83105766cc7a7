// Package datagen generates deterministic synthetic column data for the
// engine simulators and defines the canonical star-schema warehouse used by
// the experiments. The paper's evaluation ran against a 151 GB dataset
// generated from a Vertica customer's data distribution; here we generate a
// scaled-down instantiation with zipfian/uniform value distributions so the
// executors run real scans while the cost models reason about the full
// modeled row counts.
//
// All column values are stored as int64: integer columns hold their value,
// string columns hold dictionary codes (value k renders as "v<k>"), and
// float columns hold scaled integers. This keeps predicate evaluation and
// aggregation uniform across types.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"cliffguard/internal/schema"
)

// Dataset is a physical instantiation of a schema: per-column int64 arrays.
// Physical row counts may be smaller than the schema's modeled row counts
// (the cost models use modeled counts; the executors use physical data).
type Dataset struct {
	Schema *schema.Schema
	rows   map[string]int  // table -> physical row count
	cols   map[int][]int64 // global column ID -> values
}

// Generate materializes data for every table, capping physical rows at
// maxRows per table (0 means no cap). Generation is deterministic in seed.
func Generate(s *schema.Schema, maxRows int, seed int64) *Dataset {
	d := &Dataset{
		Schema: s,
		rows:   make(map[string]int),
		cols:   make(map[int][]int64),
	}
	for _, t := range s.Tables() {
		n := int(t.Rows)
		if maxRows > 0 && n > maxRows {
			n = maxRows
		}
		d.rows[t.Name] = n
		for _, c := range t.Columns {
			rng := rand.New(rand.NewSource(seed ^ int64(c.ID)*0x1E3779B97F4A7C15))
			d.cols[c.ID] = generateColumn(rng, c, n)
		}
	}
	return d
}

// generateColumn fills one column. Low-cardinality columns are zipfian
// (skewed, like dimension keys and categorical attributes); high-cardinality
// columns are uniform.
func generateColumn(rng *rand.Rand, c schema.Column, n int) []int64 {
	vals := make([]int64, n)
	card := c.Cardinality
	if card < 1 {
		card = 1
	}
	if card > 1 && card <= int64(n)/2 {
		z := rand.NewZipf(rng, 1.2, 1, uint64(card-1))
		for i := range vals {
			vals[i] = int64(z.Uint64())
		}
		return vals
	}
	for i := range vals {
		vals[i] = rng.Int63n(card)
	}
	return vals
}

// Rows returns the physical row count of a table.
func (d *Dataset) Rows(table string) int { return d.rows[table] }

// Column returns the physical values of a column by global ID, or nil if the
// dataset does not contain it.
func (d *Dataset) Column(id int) []int64 { return d.cols[id] }

// factRowsPerScale is the sales table's modeled row count at scale 1, the
// largest per-scale row count in the warehouse.
const factRowsPerScale = 2_000_000

// MaxWarehouseScale is the largest scale Warehouse accepts: beyond it the
// fact tables' row counts overflow int64.
const MaxWarehouseScale = math.MaxInt64 / factRowsPerScale

// Warehouse returns the canonical star-schema warehouse used throughout the
// experiments: two wide fact tables (modeled after the analytical anchor
// tables of the paper's R1 customer) plus dimension tables. scale multiplies
// the modeled row counts (scale 1 models a few million fact rows); it panics
// above MaxWarehouseScale.
func Warehouse(scale int64) *schema.Schema {
	if scale < 1 {
		scale = 1
	}
	if scale > MaxWarehouseScale {
		panic(fmt.Sprintf("datagen: warehouse scale %d exceeds %d", scale, int64(MaxWarehouseScale)))
	}
	factRows := factRowsPerScale * scale
	eventRows := 1_200_000 * scale

	salesCols := []schema.ColumnDef{
		{Name: "sale_id", Type: schema.Int64, Cardinality: factRows},
		{Name: "customer_id", Type: schema.Int64, Cardinality: 200_000},
		{Name: "product_id", Type: schema.Int64, Cardinality: 50_000},
		{Name: "store_id", Type: schema.Int64, Cardinality: 500},
		{Name: "promo_id", Type: schema.Int64, Cardinality: 1_000},
		{Name: "channel", Type: schema.String, Cardinality: 8},
		{Name: "region", Type: schema.String, Cardinality: 40},
		{Name: "country", Type: schema.String, Cardinality: 60},
		{Name: "sale_date", Type: schema.Int64, Cardinality: 730},
		{Name: "sale_hour", Type: schema.Int64, Cardinality: 24},
		{Name: "quantity", Type: schema.Int64, Cardinality: 100},
		{Name: "unit_price", Type: schema.Float64, Cardinality: 10_000},
		{Name: "discount_pct", Type: schema.Float64, Cardinality: 100},
		{Name: "total", Type: schema.Float64, Cardinality: 500_000},
		{Name: "tax", Type: schema.Float64, Cardinality: 50_000},
		{Name: "shipping_cost", Type: schema.Float64, Cardinality: 5_000},
		{Name: "margin", Type: schema.Float64, Cardinality: 100_000},
		{Name: "payment_type", Type: schema.String, Cardinality: 6},
		{Name: "currency", Type: schema.String, Cardinality: 20},
		{Name: "loyalty_tier", Type: schema.String, Cardinality: 5},
		{Name: "is_return", Type: schema.Int64, Cardinality: 2},
		{Name: "warehouse_id", Type: schema.Int64, Cardinality: 120},
		{Name: "carrier_id", Type: schema.Int64, Cardinality: 30},
		{Name: "delivery_days", Type: schema.Int64, Cardinality: 30},
		{Name: "order_priority", Type: schema.String, Cardinality: 4},
		{Name: "sales_rep_id", Type: schema.Int64, Cardinality: 2_500},
		{Name: "campaign_id", Type: schema.Int64, Cardinality: 400},
		{Name: "basket_size", Type: schema.Int64, Cardinality: 60},
		{Name: "coupon_code", Type: schema.String, Cardinality: 3_000},
		{Name: "device", Type: schema.String, Cardinality: 12},
		{Name: "referrer", Type: schema.String, Cardinality: 200},
		{Name: "session_len", Type: schema.Int64, Cardinality: 3_600},
		{Name: "clicks", Type: schema.Int64, Cardinality: 500},
		{Name: "cost_of_goods", Type: schema.Float64, Cardinality: 200_000},
		{Name: "list_price", Type: schema.Float64, Cardinality: 10_000},
		{Name: "vendor_id", Type: schema.Int64, Cardinality: 5_000},
		{Name: "category_id", Type: schema.Int64, Cardinality: 300},
		{Name: "subcategory_id", Type: schema.Int64, Cardinality: 2_000},
		{Name: "brand_id", Type: schema.Int64, Cardinality: 1_200},
		{Name: "fiscal_quarter", Type: schema.Int64, Cardinality: 8},
	}

	eventCols := []schema.ColumnDef{
		{Name: "event_id", Type: schema.Int64, Cardinality: eventRows},
		{Name: "user_id", Type: schema.Int64, Cardinality: 300_000},
		{Name: "event_type", Type: schema.String, Cardinality: 50},
		{Name: "event_date", Type: schema.Int64, Cardinality: 730},
		{Name: "event_hour", Type: schema.Int64, Cardinality: 24},
		{Name: "page_id", Type: schema.Int64, Cardinality: 20_000},
		{Name: "app_version", Type: schema.String, Cardinality: 60},
		{Name: "platform", Type: schema.String, Cardinality: 6},
		{Name: "duration_ms", Type: schema.Int64, Cardinality: 60_000},
		{Name: "bytes_sent", Type: schema.Int64, Cardinality: 1_000_000},
		{Name: "bytes_recv", Type: schema.Int64, Cardinality: 1_000_000},
		{Name: "status_code", Type: schema.Int64, Cardinality: 40},
		{Name: "geo_region", Type: schema.String, Cardinality: 40},
		{Name: "isp_id", Type: schema.Int64, Cardinality: 800},
		{Name: "experiment_id", Type: schema.Int64, Cardinality: 150},
		{Name: "variant", Type: schema.String, Cardinality: 8},
		{Name: "error_class", Type: schema.String, Cardinality: 120},
		{Name: "retry_count", Type: schema.Int64, Cardinality: 10},
		{Name: "queue_depth", Type: schema.Int64, Cardinality: 1_000},
		{Name: "latency_ms", Type: schema.Int64, Cardinality: 30_000},
		{Name: "cpu_ms", Type: schema.Int64, Cardinality: 10_000},
		{Name: "cache_hit", Type: schema.Int64, Cardinality: 2},
		{Name: "shard_id", Type: schema.Int64, Cardinality: 256},
		{Name: "tenant_id", Type: schema.Int64, Cardinality: 4_000},
		{Name: "api_method", Type: schema.String, Cardinality: 90},
		{Name: "client_build", Type: schema.Int64, Cardinality: 500},
		{Name: "session_id", Type: schema.Int64, Cardinality: 800_000},
		{Name: "feature_flag", Type: schema.String, Cardinality: 64},
		{Name: "payload_kind", Type: schema.String, Cardinality: 30},
		{Name: "sampled", Type: schema.Int64, Cardinality: 2},
	}

	dim := func(name string, rows int64, extra ...schema.ColumnDef) schema.TableDef {
		cols := []schema.ColumnDef{
			{Name: name + "_key", Type: schema.Int64, Cardinality: rows},
			{Name: "name", Type: schema.String, Cardinality: rows},
		}
		cols = append(cols, extra...)
		return schema.TableDef{Name: name, Rows: rows, Columns: cols}
	}

	defs := []schema.TableDef{
		{Name: "sales", Fact: true, Rows: factRows, Columns: salesCols},
		{Name: "events", Fact: true, Rows: eventRows, Columns: eventCols},
		dim("customers", 200_000,
			schema.ColumnDef{Name: "segment", Type: schema.String, Cardinality: 10},
			schema.ColumnDef{Name: "signup_date", Type: schema.Int64, Cardinality: 2_000},
			schema.ColumnDef{Name: "ltv", Type: schema.Float64, Cardinality: 100_000},
		),
		dim("products", 50_000,
			schema.ColumnDef{Name: "category", Type: schema.String, Cardinality: 300},
			schema.ColumnDef{Name: "brand", Type: schema.String, Cardinality: 1_200},
			schema.ColumnDef{Name: "weight_g", Type: schema.Int64, Cardinality: 10_000},
		),
		dim("stores", 500,
			schema.ColumnDef{Name: "city", Type: schema.String, Cardinality: 400},
			schema.ColumnDef{Name: "sqft", Type: schema.Int64, Cardinality: 400},
		),
		dim("promotions", 1_000,
			schema.ColumnDef{Name: "kind", Type: schema.String, Cardinality: 12},
		),
		dim("vendors", 5_000,
			schema.ColumnDef{Name: "tier", Type: schema.String, Cardinality: 4},
		),
		dim("campaigns", 400,
			schema.ColumnDef{Name: "medium", Type: schema.String, Cardinality: 10},
		),
		dim("carriers", 30),
		dim("warehouses", 120,
			schema.ColumnDef{Name: "zone", Type: schema.String, Cardinality: 8},
		),
		dim("experiments", 150,
			schema.ColumnDef{Name: "owner", Type: schema.String, Cardinality: 50},
		),
		dim("tenants", 4_000,
			schema.ColumnDef{Name: "plan", Type: schema.String, Cardinality: 5},
		),
	}

	// Satellite tables: the paper's R1 schema spans 310 tables and thousands
	// of columns, and delta_euclidean normalizes by the total column count n
	// (Section 5). These small auxiliary tables reproduce that scale — and
	// hence the absolute delta magnitudes of Table 1 — without affecting the
	// fact-table query workload. 400 tables x 12 columns ~ 4800 extra cols.
	types := []schema.ColumnType{schema.Int64, schema.String, schema.Float64}
	for i := 0; i < 400; i++ {
		name := fmt.Sprintf("sat_%03d", i)
		cols := []schema.ColumnDef{
			{Name: "id", Type: schema.Int64, Cardinality: 1_000},
		}
		for j := 0; j < 11; j++ {
			cols = append(cols, schema.ColumnDef{
				Name:        fmt.Sprintf("attr_%02d", j),
				Type:        types[(i+j)%len(types)],
				Cardinality: int64(10 + (i*31+j*7)%990),
			})
		}
		defs = append(defs, schema.TableDef{Name: name, Rows: 1_000, Columns: cols})
	}
	s, err := schema.New(defs)
	if err != nil {
		panic(fmt.Sprintf("datagen: warehouse schema invalid: %v", err))
	}
	return s
}
