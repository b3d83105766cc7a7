package engine

import (
	"context"
	"testing"
	"time"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/rowsim"
	"cliffguard/internal/schema"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/workload"
)

// fuzzIn hands out fuzz input bytes, then zeros once exhausted.
type fuzzIn []byte

func (b *fuzzIn) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// col picks a column of tbl, or now and then one of another table.
func (b *fuzzIn) col(s *schema.Schema, tbl *schema.Table) int {
	v := b.next()
	if v%17 == 16 {
		return v % s.NumColumns()
	}
	return tbl.Columns[v%len(tbl.Columns)].ID
}

// FuzzVectorKernel fills vectors of fuzzed queries under fuzzed designs
// through both engines' vector kernels and requires every entry to match
// Cost bit for bit (designertest.Vector). Queries may reference another
// table's column or an unknown table; designs mix projections, indexes and
// views on any table.
func FuzzVectorKernel(f *testing.F) {
	f.Add([]byte{5, 0, 3, 1, 2, 3, 1, 4, 0, 90, 1, 2, 2, 0, 2, 1, 1, 7, 4, 2, 9, 1, 3})
	f.Add([]byte{9, 1, 2, 16, 33, 2, 5, 3, 200, 7, 1, 0, 1, 1, 3, 4, 0, 2, 0, 0, 5, 5, 5, 5})
	f.Add([]byte{2, 7, 1, 1, 0, 0, 0, 255, 255, 3, 1, 1})
	s := datagen.Warehouse(1)
	tables := s.Tables()
	vdb, rdb := vertsim.Open(s), rowsim.Open(s)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzIn(data)
		var queries []*workload.Query
		for n := 1 + in.next()%12; len(queries) < n; {
			tbl := tables[in.next()%len(tables)]
			spec := &workload.Spec{Table: tbl.Name}
			if in.next()%23 == 22 {
				spec.Table = "nope"
			}
			for k := in.next() % 4; k >= 0; k-- {
				spec.SelectCols = append(spec.SelectCols, in.col(s, tbl))
			}
			for k := in.next() % 4; k > 0; k-- {
				spec.Preds = append(spec.Preds, workload.Pred{Col: in.col(s, tbl), Op: workload.CmpOp(in.next() % 6),
					Sel: float64(in.next()) / 255})
			}
			if in.next()%3 == 0 {
				spec.GroupBy = []int{in.col(s, tbl)}
				spec.Aggs = []workload.Agg{{Fn: workload.AggFn(in.next() % 5), Col: in.col(s, tbl)}}
			}
			if in.next()%3 == 0 {
				spec.OrderBy = []workload.OrderCol{{Col: in.col(s, tbl), Desc: in.next()%2 == 1}}
			}
			queries = append(queries, workload.FromSpec(int64(len(queries)+1), time.Time{}, spec))
		}
		var vs, rs []designer.Structure
		for n := in.next() % 8; n > 0; n-- {
			tbl := tables[in.next()%len(tables)]
			a, b, c := tbl.Columns[in.next()%len(tbl.Columns)].ID, tbl.Columns[in.next()%len(tbl.Columns)].ID,
				tbl.Columns[in.next()%len(tbl.Columns)].ID
			if p, err := vertsim.NewProjection(s, tbl.Name, []int{a, b, c}, []workload.OrderCol{{Col: b}, {Col: a, Desc: c%2 == 0}}); err == nil {
				vs = append(vs, p)
			}
			if idx, err := rdb.NewIndex(tbl.Name, []int{a, c}, []int{b}); err == nil {
				rs = append(rs, idx)
			}
			if mv, err := rdb.NewMatView(tbl.Name, []int{a, b}, []workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: c}}); err == nil {
				rs = append(rs, mv)
			}
		}
		ctx := context.Background()
		mixed := designer.NewDesign(append(append([]designer.Structure(nil), vs...), rs...)...)
		for _, c := range []struct {
			cm designer.CostModel
			ss []designer.Structure
		}{{vdb, vs}, {rdb, rs}} {
			designs := []*designer.Design{designer.NewDesign(c.ss...), mixed}
			for _, st := range c.ss {
				designs = append(designs, designer.NewDesign(st))
			}
			if _, err := designertest.Vector(ctx, c.cm, queries, designs); err != nil {
				t.Fatalf("%T: %v", c.cm, err)
			}
		}
	})
}
