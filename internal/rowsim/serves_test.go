package rowsim

import (
	"context"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/obs"
	"cliffguard/internal/workload"
)

// r1Pool returns R1's first month, the nominal designer, its compressed
// form of the month, and its candidate pool for it.
func r1Pool(t testing.TB) (*DB, *workload.Workload, *Designer, *workload.Workload, []designer.Structure) {
	s, month, err := designertest.R1Month(1)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(s)
	d := NewDesigner(db, 384<<20)
	cw := d.Compress(month)
	return db, month, d, cw, d.Candidates(cw)
}

// TestServesContract checks Index.Serves and MatView.Serves against the
// cost model on an R1 window, its candidates and sampler mutants of its
// queries: every candidate serves some query of the window, and a structure
// that does not serve a query leaves its cost bit-identical. It also checks
// the sparse pair table against a dense oracle over the same queries.
func TestServesContract(t *testing.T) {
	db, _, _, cw, pool := r1Pool(t)
	ctx := context.Background()
	queries := designertest.Mutants(db.Schema, cw, 7)
	if idle := designertest.Idle(pool, queries[:cw.Len()]); len(idle) > 0 {
		t.Fatalf("%d of %d candidates serve no query of the window they were built for: %v", len(idle), len(pool), idle)
	}
	checked, err := designertest.ServesContract(ctx, db, queries, pool, designertest.RandomDesigns(pool, 3, 4, 11))
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no non-serving pair was checked")
	}
	if err := designertest.DensePairTable(ctx, db, workload.New(queries...), pool); err != nil {
		t.Fatal(err)
	}
}

// TestPairKernel checks the pair kernel against Cost(q, {s}) for every
// candidate of an R1 window over the window's queries and sampler mutants of
// them.
func TestPairKernel(t *testing.T) {
	db, _, _, cw, pool := r1Pool(t)
	queries := designertest.Mutants(db.Schema, cw, 7)
	cells, err := designertest.Kernel(context.Background(), db, queries, pool)
	if err != nil {
		t.Fatal(err)
	}
	if cells == 0 {
		t.Fatal("the kernel reported no cell")
	}
	t.Logf("%d queries, %d candidates: %d cells", len(queries), len(pool), cells)
}

// TestPairTableConcurrentBuilds builds the nominal designer's pair tables
// from several goroutines sharing one DB (run it under -race): the kernel and
// the build take their scratch from pools, and every table must equal the
// one built alone.
func TestPairTableConcurrentBuilds(t *testing.T) {
	db, _, _, cw, pool := r1Pool(t)
	if err := designertest.ConcurrentBuilds(context.Background(), db, cw, pool, 4, 20); err != nil {
		t.Fatal(err)
	}
}

// TestDesignCostModelCalls pins the nominal designer's cost-model calls on
// R1's first month: one per compressed query for the base costs, plus one
// per (structure, query) pair the structure serves.
func TestDesignCostModelCalls(t *testing.T) {
	db, month, d, cw, pool := r1Pool(t)
	ctx := context.Background()
	pairs, err := designertest.ServedPairs(ctx, Open(db.Schema), cw, pool)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	db.Instrument(m)
	if _, err := d.Design(ctx, month); err != nil {
		t.Fatal(err)
	}
	got, want := m.CostModelCalls.Load(), uint64(cw.Len()+pairs)
	dense := uint64(cw.Len() + cw.Len()*len(pool))
	t.Logf("%d queries, %d candidates: %d cost-model calls (dense table: %d)", cw.Len(), len(pool), got, dense)
	if got != want {
		t.Fatalf("Design made %d cost-model calls, want %d queries + %d served pairs", got, cw.Len(), pairs)
	}
	if got >= dense {
		t.Fatalf("Design made %d cost-model calls, no fewer than the dense table's %d", got, dense)
	}
}

// TestDesignAllocations gates one nominal Design on R1's first month. The
// bound is about 10% above the 1,654 allocations measured once index and
// view keys were appended to a buffer (not formatted through fmt and maps)
// and cluster structures were keyed before they were built. It made 2,808
// before, and 2,999 before the pair table was built through the kernel and
// stored sparsely.
func TestDesignAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	_, month, d, _, _ := r1Pool(t)
	ctx := context.Background()
	const bound = 1808
	if n := testing.AllocsPerRun(5, func() {
		if _, err := d.Design(ctx, month); err != nil {
			t.Fatal(err)
		}
	}); n > bound {
		t.Fatalf("Design allocates %.0f times, want at most %d", n, bound)
	} else {
		t.Logf("Design: %.0f allocations", n)
	}
}

// TestSessionRunAllocations gates one session's five calls on the
// workloads of BenchmarkDesignRun. The bound is the 2,633 allocations
// measured once the session interned the structures it builds and numbered
// each query's template once, plus 10%; it made 6,575 when each call rebuilt its cluster structures and keyed them
// through maps.
func TestSessionRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	db, month, d, _, _ := r1Pool(t)
	ws := designertest.RunWorkloads(db.Schema, month, 1, 4)
	ctx := context.Background()
	const bound = 2896
	if n := testing.AllocsPerRun(3, func() {
		nominal := d.Session()
		for _, w := range ws {
			if _, err := nominal.Design(ctx, w); err != nil {
				t.Fatal(err)
			}
		}
	}); n > bound {
		t.Fatalf("a session's five calls allocate %.0f times, want at most %d", n, bound)
	} else {
		t.Logf("session run: %.0f allocations", n)
	}
}

// TestBuildPairTableAllocations gates the nominal designer's pair table on
// R1's first month. It allocates the table's own slices, 9 times, while the
// kernel's and the build's scratch are reused; the bound leaves room for one run
// that finds the scratch pools emptied by a GC. It made 212 allocations
// with a dense cell matrix and one Cost call per served pair.
func TestBuildPairTableAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	_, _, d, cw, pool := r1Pool(t)
	ctx := context.Background()
	const bound = 12
	if n := testing.AllocsPerRun(10, func() {
		if _, err := designer.BuildPairTable(ctx, d.DB, cw, pool); err != nil {
			t.Fatal(err)
		}
	}); n > bound {
		t.Fatalf("BuildPairTable allocates %.0f times, want at most %d", n, bound)
	} else {
		t.Logf("BuildPairTable: %.0f allocations", n)
	}
}

// BenchmarkBuildPairTable builds the nominal designer's pair table for R1's
// first month.
func BenchmarkBuildPairTable(b *testing.B) {
	_, _, d, cw, pool := r1Pool(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := designer.BuildPairTable(ctx, d.DB, cw, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesign runs the nominal designer on R1's first month: workload
// compression, candidate generation and the greedy pair-table selection.
func BenchmarkDesign(b *testing.B) {
	_, month, d, _, _ := r1Pool(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Design(ctx, month); err != nil {
			b.Fatal(err)
		}
	}
}

// TestVectorKernel checks the vector kernel against Cost on R1 month 0's
// queries at two seeds, sampler mutants of them and unsupported queries, under
// the nil design, random designs of their candidates, and a design
// with structures on every table, most of them on other anchors than a
// given query's.
func TestVectorKernel(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		s, month, err := designertest.R1Month(seed)
		if err != nil {
			t.Fatal(err)
		}
		db := Open(s)
		cw := designer.CompressByTemplate(month)
		pool := NewDesigner(db, 2560<<20).Candidates(cw)
		queries := append(designertest.Mutants(s, cw, seed), designertest.Unsupported(s)...)
		designs := append(designertest.RandomDesigns(pool, 4, 12, seed), everyTable(t, db))
		n, err := designertest.Vector(context.Background(), db, queries, designs)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: %d queries, %d entries checked", seed, len(queries), n)
	}
}

// TestSessionTables checks a designer session's pair tables, built through
// one designer.PairRows over the workloads of a run (one of them reversed,
// one listing a query twice), against the dense oracle and BuildPairTable, and the session's
// designs against the designer's.
func TestSessionTables(t *testing.T) {
	db, _, d, cw, pool := r1Pool(t)
	ctx := context.Background()
	ws := designertest.RunWorkloads(db.Schema, cw, 3, 4)
	// Reversed, a workload lists its queries against the session's order;
	// one listing a query twice takes BuildPairTable's path.
	rev := &workload.Workload{}
	for i := ws[3].Len() - 1; i >= 0; i-- {
		rev.Add(ws[3].Items[i].Q, ws[3].Items[i].Weight)
	}
	dup := ws[2].Clone()
	dup.Add(cw.Items[0].Q, 2)
	ws = append(ws, rev, dup)
	pools := [][]designer.Structure{pool}
	for _, w := range ws[1:] {
		pools = append(pools, d.Candidates(w))
	}
	if err := designertest.DensePairRows(ctx, db, ws, pools); err != nil {
		t.Fatal(err)
	}
	if err := designertest.Session(ctx, d, ws); err != nil {
		t.Fatal(err)
	}
}

// everyTable returns a design with an index and a view on every table of
// db's schema.
func everyTable(t *testing.T, db *DB) *designer.Design {
	var ss []designer.Structure
	for _, tbl := range db.Schema.Tables() {
		first, last := tbl.Columns[0].ID, tbl.Columns[len(tbl.Columns)-1].ID
		idx, err := db.NewIndex(tbl.Name, []int{first}, []int{last})
		if err != nil {
			t.Fatal(err)
		}
		mv, err := db.NewMatView(tbl.Name, []int{first}, []workload.Agg{{Fn: workload.Count, Col: -1}})
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, idx, mv)
	}
	return designer.NewDesign(ss...)
}

// BenchmarkDesignRun designs the five workloads of a run's shape on R1's
// first month (designertest.RunWorkloads): call by call with the plain
// designer, and through one session, which keeps derivations and pair
// cells across the calls.
func BenchmarkDesignRun(b *testing.B) {
	db, month, d, _, _ := r1Pool(b)
	ws := designertest.RunWorkloads(db.Schema, month, 1, 4)
	ctx := context.Background()
	for _, session := range []bool{false, true} {
		b.Run(map[bool]string{false: "calls", true: "session"}[session], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var nominal designer.Designer = d
				if session {
					nominal = d.Session()
				}
				for _, w := range ws {
					if _, err := nominal.Design(ctx, w); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
