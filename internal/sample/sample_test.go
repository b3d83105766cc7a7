package sample

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cliffguard/internal/distance"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

func testSchema() *schema.Schema {
	cols := make([]schema.ColumnDef, 30)
	for i := range cols {
		cols[i] = schema.ColumnDef{Name: colName(i), Type: schema.Int64, Cardinality: 1000}
	}
	return schema.MustNew([]schema.TableDef{
		{Name: "facts", Fact: true, Rows: 100_000, Columns: cols},
	})
}

func colName(i int) string {
	return "c" + string(rune('a'+i/10)) + string(rune('0'+i%10))
}

// baseWorkload builds a workload of several templates over the schema.
func baseWorkload(s *schema.Schema, rng *rand.Rand, n int) *workload.Workload {
	w := &workload.Workload{}
	tbl := s.Tables()[0]
	for i := 0; i < n; i++ {
		k := 2 + rng.Intn(4)
		spec := &workload.Spec{Table: tbl.Name}
		for j := 0; j < k; j++ {
			spec.SelectCols = append(spec.SelectCols, tbl.Columns[rng.Intn(len(tbl.Columns))].ID)
		}
		spec.Preds = append(spec.Preds, workload.Pred{
			Col: tbl.Columns[rng.Intn(len(tbl.Columns))].ID,
			Op:  workload.Eq, Lo: 5, Hi: 5, Sel: 0.001,
		})
		w.Add(workload.FromSpec(workload.NextID(), time.Time{}, spec), 1+rng.Float64()*4)
	}
	return w
}

func newTestSampler(s *schema.Schema) (*Sampler, distance.Metric) {
	m := distance.NewEuclidean(s.NumColumns())
	return New(m, NewMutator(s)), m
}

func TestSampleAtHitsRequestedDistance(t *testing.T) {
	s := testSchema()
	sampler, m := newTestSampler(s)
	rng := rand.New(rand.NewSource(1))
	w0 := baseWorkload(s, rng, 12)

	for _, alpha := range []float64{0.001, 0.005, 0.02} {
		w1, err := sampler.SampleAt(rng, w0, alpha)
		if err != nil {
			t.Fatalf("SampleAt(%g): %v", alpha, err)
		}
		got := m.Distance(w0, w1)
		if math.Abs(got-alpha)/alpha > 0.06 {
			t.Errorf("SampleAt(%g) landed at %g (%.1f%% off)", alpha, got, 100*math.Abs(got-alpha)/alpha)
		}
		// The sample must contain all of W0 (Algorithm 4 adds, never removes).
		if w1.Len() < w0.Len() {
			t.Error("sampled workload lost W0 queries")
		}
	}
}

func TestSampleAtZero(t *testing.T) {
	s := testSchema()
	sampler, m := newTestSampler(s)
	rng := rand.New(rand.NewSource(2))
	w0 := baseWorkload(s, rng, 8)
	w1, err := sampler.SampleAt(rng, w0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Distance(w0, w1); d != 0 {
		t.Fatalf("distance = %g, want 0", d)
	}
}

func TestSampleAtErrors(t *testing.T) {
	s := testSchema()
	sampler, _ := newTestSampler(s)
	rng := rand.New(rand.NewSource(3))
	if _, err := sampler.SampleAt(rng, &workload.Workload{}, 0.01); err == nil {
		t.Error("empty workload should fail")
	}
	w0 := baseWorkload(s, rng, 4)
	if _, err := sampler.SampleAt(rng, w0, -1); err == nil {
		t.Error("negative distance should fail")
	}
	// A distance no perturbation can reach (metric is bounded by 1).
	if _, err := sampler.SampleAt(rng, w0, 5); !errors.Is(err, ErrNoPerturbation) {
		t.Errorf("unreachable distance error = %v, want ErrNoPerturbation", err)
	}
}

func TestNeighborhood(t *testing.T) {
	s := testSchema()
	sampler, m := newTestSampler(s)
	rng := rand.New(rand.NewSource(4))
	w0 := baseWorkload(s, rng, 10)

	const gamma = 0.01
	samples, err := sampler.Neighborhood(rng, w0, gamma, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for i, w1 := range samples {
		d := m.Distance(w0, w1)
		if d <= 0 || d > gamma*1.06 {
			t.Errorf("sample %d at distance %g, want (0, %g]", i, d, gamma)
		}
	}

	// gamma = 0: clones of W0.
	clones, err := sampler.Neighborhood(rng, w0, 0, 3)
	if err != nil || len(clones) != 3 {
		t.Fatalf("gamma=0 neighborhood: %v, %d samples", err, len(clones))
	}
	for _, c := range clones {
		if d := m.Distance(w0, c); d != 0 {
			t.Error("gamma=0 sample should be at distance 0")
		}
	}

	if _, err := sampler.Neighborhood(rng, w0, -1, 3); err == nil {
		t.Error("negative gamma should fail")
	}
	if _, err := sampler.Neighborhood(rng, w0, 0.01, 0); err == nil {
		t.Error("zero samples should fail")
	}
}

// TestSampleAtProperty: the landing accuracy holds across random workloads
// and distances.
func TestSampleAtProperty(t *testing.T) {
	s := testSchema()
	sampler, m := newTestSampler(s)
	check := func(seed int64, rawAlpha float64) bool {
		rng := rand.New(rand.NewSource(seed))
		w0 := baseWorkload(s, rng, 5+rng.Intn(10))
		alpha := 0.0005 + math.Mod(math.Abs(rawAlpha), 0.02)
		w1, err := sampler.SampleAt(rng, w0, alpha)
		if err != nil {
			// Acceptable only for unreachable distances; these are small.
			return false
		}
		got := m.Distance(w0, w1)
		return math.Abs(got-alpha)/alpha < 0.06
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMutatorProducesValidQueries(t *testing.T) {
	s := testSchema()
	mut := NewMutator(s)
	rng := rand.New(rand.NewSource(5))
	w0 := baseWorkload(s, rng, 10)

	cands := mut.Candidates(rng, w0, 50, nil)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, q := range cands {
		if q.Spec == nil || q.Spec.Table != "facts" {
			t.Fatalf("bad candidate: %v", q)
		}
		if q.Columns().Empty() {
			t.Fatal("candidate references no columns")
		}
		refs := q.Spec.ReferencedCols()
		for _, c := range refs {
			if !s.ValidID(c) || s.Column(c).Table != "facts" {
				t.Fatalf("candidate references invalid column %d", c)
			}
		}
		// Mutants are rebuilt through FromSpec, so the engines' clause-set
		// walk must still see exactly the Spec's columns, in order.
		i := 0
		q.EachRef(func(c int) bool {
			if i >= len(refs) || refs[i] != c {
				t.Fatalf("EachRef visits %d at %d, ReferencedCols = %v", c, i, refs)
			}
			i++
			return true
		})
		if i != len(refs) {
			t.Fatalf("EachRef visits %d columns, ReferencedCols = %v", i, refs)
		}
		want := workload.NewColSet(refs...)
		for _, cols := range []workload.ColSet{want, q.Select, q.Where, workload.NewColSet(refs[1:]...)} {
			if q.RefsIn(cols) != cols.Contains(want) {
				t.Fatalf("RefsIn(%v) = %v, ReferencedCols = %v", cols, q.RefsIn(cols), refs)
			}
		}
		for _, p := range q.Spec.Preds {
			if p.Sel <= 0 || p.Sel > 1 {
				t.Fatalf("candidate pred selectivity %g out of range", p.Sel)
			}
		}
	}
}

func TestMutateDiffersFromBase(t *testing.T) {
	s := testSchema()
	mut := NewMutator(s)
	rng := rand.New(rand.NewSource(6))
	w0 := baseWorkload(s, rng, 3)
	base := w0.Items[0].Q

	differs := 0
	for i := 0; i < 50; i++ {
		m := mut.Mutate(rng, base)
		if m == nil {
			t.Fatal("Mutate returned nil")
		}
		if m.TemplateKey(workload.MaskSWGO) != base.TemplateKey(workload.MaskSWGO) {
			differs++
		}
		// Mutation must not alias the base spec.
		if m.Spec == base.Spec {
			t.Fatal("Mutate shares the base spec")
		}
	}
	if differs < 25 {
		t.Errorf("only %d/50 mutations changed the template", differs)
	}
}

func TestMutatorEmptyInputs(t *testing.T) {
	s := testSchema()
	mut := NewMutator(s)
	rng := rand.New(rand.NewSource(7))
	if got := mut.Candidates(rng, &workload.Workload{}, 5, nil); got != nil {
		t.Error("empty workload should yield no candidates")
	}
	w0 := baseWorkload(s, rng, 2)
	if got := mut.Candidates(rng, w0, 0, nil); got != nil {
		t.Error("k=0 should yield no candidates")
	}
}
