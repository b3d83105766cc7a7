package designer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"cliffguard/internal/workload"
)

// fakeStructure is a minimal Structure for selection tests.
type fakeStructure struct {
	key  string
	size int64
}

func (f *fakeStructure) Key() string      { return f.key }
func (f *fakeStructure) SizeBytes() int64 { return f.size }
func (f *fakeStructure) Describe() string { return "FAKE " + f.key }

// tableCost is a CostModel where each structure serves a fixed set of query
// IDs at a fixed cost; everything else runs at base cost.
type tableCost struct {
	base   float64
	serves map[string]map[int64]float64 // structure key -> query ID -> cost
	fail   bool
}

func (tc *tableCost) Cost(_ context.Context, q *workload.Query, d *Design) (float64, error) {
	if tc.fail {
		return 0, errors.New("boom")
	}
	best := tc.base
	if d != nil {
		for _, s := range d.Structures {
			if c, ok := tc.serves[s.Key()][q.ID]; ok && c < best {
				best = c
			}
		}
	}
	return best, nil
}

func mkQuery(id int64, cols ...int) *workload.Query {
	q := workload.FromSpec(id, time.Time{}, &workload.Spec{Table: "t", SelectCols: cols})
	return q
}

func TestDesignBasics(t *testing.T) {
	a := &fakeStructure{"a", 10}
	b := &fakeStructure{"b", 20}
	d := NewDesign(a, b, a, nil) // duplicate + nil dropped
	if d.Len() != 2 || d.SizeBytes() != 30 {
		t.Fatalf("Len=%d Size=%d", d.Len(), d.SizeBytes())
	}
	keys := d.Keys()
	if !keys["a"] || !keys["b"] {
		t.Error("Keys missing entries")
	}
	d2 := d.With(&fakeStructure{"c", 5})
	if d2.Len() != 3 || d.Len() != 2 {
		t.Error("With should not mutate the receiver")
	}
	var nilDesign *Design
	if nilDesign.Len() != 0 || nilDesign.SizeBytes() != 0 {
		t.Error("nil design should be empty")
	}
	if !strings.Contains(d.String(), "FAKE a") {
		t.Error("String should describe structures")
	}
	if (&Design{}).String() != "Design{}" {
		t.Error("empty design String")
	}
}

func TestWorkloadCost(t *testing.T) {
	q1, q2 := mkQuery(1, 0), mkQuery(2, 1)
	w := &workload.Workload{}
	w.Add(q1, 2)
	w.Add(q2, 3)
	tc := &tableCost{base: 10, serves: map[string]map[int64]float64{
		"a": {1: 1},
	}}
	got, err := WorkloadCost(context.Background(), tc, w, nil)
	if err != nil || got != 50 {
		t.Fatalf("WorkloadCost = %g, %v; want 50", got, err)
	}
	got, err = WorkloadCost(context.Background(), tc, w, NewDesign(&fakeStructure{"a", 1}))
	if err != nil || got != 32 { // 2*1 + 3*10
		t.Fatalf("WorkloadCost with design = %g, %v; want 32", got, err)
	}
	tc.fail = true
	if _, err := WorkloadCost(context.Background(), tc, w, nil); err == nil {
		t.Fatal("cost errors must propagate")
	}
}

func TestCompressByTemplate(t *testing.T) {
	// Two queries share a template; one differs.
	qa1, qa2 := mkQuery(1, 0, 1), mkQuery(2, 0, 1)
	qb := mkQuery(3, 2)
	w := &workload.Workload{}
	w.Add(qa1, 1)
	w.Add(qa2, 5) // heavier: becomes the representative
	w.Add(qb, 2)

	cw := CompressByTemplate(w)
	if cw.Len() != 2 {
		t.Fatalf("compressed to %d items, want 2", cw.Len())
	}
	var aItem *workload.Item
	for i := range cw.Items {
		if cw.Items[i].Q.Columns().Has(0) {
			aItem = &cw.Items[i]
		}
	}
	if aItem == nil || aItem.Weight != 6 {
		t.Fatalf("merged weight = %+v, want 6", aItem)
	}
	if aItem.Q != qa2 {
		t.Error("representative should be the heaviest instance")
	}
	if cw.TotalWeight() != w.TotalWeight() {
		t.Error("compression must preserve total weight")
	}
}

func TestGreedySelect(t *testing.T) {
	// Three queries; structures with different benefit/size profiles.
	q1, q2, q3 := mkQuery(1, 0), mkQuery(2, 1), mkQuery(3, 2)
	w := workload.New(q1, q2, q3)
	tc := &tableCost{base: 100, serves: map[string]map[int64]float64{
		"cheap-good": {1: 1},       // benefit 99, size 10  -> 9.9/byte
		"big-better": {1: 1, 2: 1}, // benefit 198, size 100 -> 1.98/byte
		"useless":    {},           // no benefit
		"third":      {3: 50},      // benefit 50, size 10
	}}
	cands := []Structure{
		&fakeStructure{"cheap-good", 10},
		&fakeStructure{"big-better", 100},
		&fakeStructure{"useless", 1},
		&fakeStructure{"third", 10},
	}

	// Ample budget: picks everything useful, skips useless.
	d, err := GreedySelect(context.Background(), tc, w, cands, 1000)
	if err != nil {
		t.Fatal(err)
	}
	keys := d.Keys()
	if !keys["cheap-good"] || !keys["third"] {
		t.Errorf("design = %v", keys)
	}
	if keys["useless"] {
		t.Error("useless structure selected")
	}

	// Tight budget: the best ratio wins first.
	d, err = GreedySelect(context.Background(), tc, w, cands, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || !d.Keys()["cheap-good"] {
		t.Errorf("tight budget design = %v", d.Keys())
	}

	// Zero budget or no candidates: empty design.
	d, _ = GreedySelect(context.Background(), tc, w, cands, 0)
	if d.Len() != 0 {
		t.Error("zero budget should yield empty design")
	}
	d, _ = GreedySelect(context.Background(), tc, w, nil, 1000)
	if d.Len() != 0 {
		t.Error("no candidates should yield empty design")
	}
}

// TestGreedySelectMatchesExhaustive verifies the incremental greedy against
// a brute-force greedy on small random instances.
func TestGreedySelectMatchesExhaustive(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		nq, ns := 4, 5
		tc := &tableCost{base: 100, serves: map[string]map[int64]float64{}}
		var queries []*workload.Query
		for i := 0; i < nq; i++ {
			queries = append(queries, mkQuery(int64(i+1), i))
		}
		w := workload.New(queries...)
		var cands []Structure
		for s := 0; s < ns; s++ {
			key := fmt.Sprintf("s%d", s)
			serve := map[int64]float64{}
			for qi := 0; qi < nq; qi++ {
				if (trial+s*7+qi*3)%3 == 0 {
					serve[int64(qi+1)] = float64((trial*5 + s + qi) % 40)
				}
			}
			tc.serves[key] = serve
			cands = append(cands, &fakeStructure{key, int64(5 + (trial+s)%20)})
		}
		budget := int64(20 + trial%30)

		fast, err := GreedySelect(context.Background(), tc, w, cands, budget)
		if err != nil {
			t.Fatal(err)
		}
		slow := bruteGreedy(tc, w, cands, budget)
		fastCost, _ := WorkloadCost(context.Background(), tc, w, fast)
		slowCost, _ := WorkloadCost(context.Background(), tc, w, slow)
		if math.Abs(fastCost-slowCost) > 1e-9 {
			t.Fatalf("trial %d: incremental greedy %.3f != reference greedy %.3f",
				trial, fastCost, slowCost)
		}
		if fast.SizeBytes() > budget {
			t.Fatalf("trial %d: budget exceeded", trial)
		}
	}
}

// bruteGreedy is the straightforward O(picks * cands * full-recost) greedy.
func bruteGreedy(cm CostModel, w *workload.Workload, cands []Structure, budget int64) *Design {
	design := NewDesign()
	remaining := append([]Structure(nil), cands...)
	cur, _ := WorkloadCost(context.Background(), cm, w, design)
	used := int64(0)
	for len(remaining) > 0 {
		bestIdx, bestScore, bestCost := -1, 0.0, 0.0
		for i, cand := range remaining {
			if used+cand.SizeBytes() > budget {
				continue
			}
			c, _ := WorkloadCost(context.Background(), cm, w, design.With(cand))
			if benefit := cur - c; benefit > 0 {
				score := benefit / float64(cand.SizeBytes())
				if bestIdx < 0 || score > bestScore {
					bestIdx, bestScore, bestCost = i, score, c
				}
			}
		}
		if bestIdx < 0 {
			break
		}
		design = design.With(remaining[bestIdx])
		used += remaining[bestIdx].SizeBytes()
		cur = bestCost
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return design
}

func TestGreedySelectPropagatesErrors(t *testing.T) {
	tc := &tableCost{base: 10, fail: true}
	w := workload.New(mkQuery(1, 0))
	if _, err := GreedySelect(context.Background(), tc, w, []Structure{&fakeStructure{"a", 1}}, 100); err == nil {
		t.Fatal("cost errors must propagate")
	}
}

// callLog records every (query ID, design keys) Cost call in order.
type callLog struct {
	CostModel
	calls []string
}

func (l *callLog) Cost(ctx context.Context, q *workload.Query, d *Design) (float64, error) {
	keys := make([]string, 0, d.Len())
	if d != nil {
		for _, s := range d.Structures {
			keys = append(keys, s.Key())
		}
	}
	l.calls = append(l.calls, fmt.Sprintf("%d%v", q.ID, keys))
	return l.CostModel.Cost(ctx, q, d)
}

// TestBuildPairTableOrder pins the parts of the table's contract the
// designer-level tests cannot see: an empty pool makes no call, the pool
// keeps first occurrences, calls go base first, then structure outer, query
// inner, and only the cells below Base are kept.
func TestBuildPairTableOrder(t *testing.T) {
	w := workload.New(mkQuery(1, 0), mkQuery(2, 1))
	log := &callLog{CostModel: &tableCost{base: 10, serves: map[string]map[int64]float64{"b": {2: 3}}}}
	tab, err := BuildPairTable(context.Background(), log, w, []Structure{nil})
	if err != nil || len(log.calls) != 0 || len(tab.Queries) != 0 {
		t.Fatalf("empty pool: %d calls, %d queries, err %v", len(log.calls), len(tab.Queries), err)
	}
	a := &fakeStructure{"a", 1}
	b := &fakeStructure{"b", 2}
	tab, err = BuildPairTable(context.Background(), log, w, []Structure{a, nil, b, &fakeStructure{"a", 9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Pool) != 2 || tab.Pool[0] != a || tab.Pool[1] != b {
		t.Fatalf("pool = %v", tab.Pool)
	}
	want := "[1[] 2[] 1[a] 2[a] 1[b] 2[b]]"
	if got := fmt.Sprint(log.calls); got != want {
		t.Fatalf("calls = %s, want %s", got, want)
	}
	if fmt.Sprint(tab.Helps, tab.HelpCost) != "[[] [1]] [[] [3]]" || tab.Base[1] != 10 {
		t.Fatalf("table = %v / %v / %v", tab.Base, tab.Helps, tab.HelpCost)
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	a := &fakeStructure{"a", 10}
	b := &fakeStructure{"b", 20}
	c := &fakeStructure{"c", 30}
	d1 := NewDesign(a, b, c)
	d2 := NewDesign(c, a, b)
	if d1.Fingerprint() != d2.Fingerprint() {
		t.Fatalf("fingerprint depends on structure order: %x vs %x", d1.Fingerprint(), d2.Fingerprint())
	}
}

func TestFingerprintDuplicationInvariant(t *testing.T) {
	a := &fakeStructure{"a", 10}
	b := &fakeStructure{"b", 20}
	base := NewDesign(a, b)
	// With appends without deduplicating; the fingerprint hashes the key SET,
	// so a duplicated structure must not change it.
	dup := NewDesign(a, b).With(a)
	if base.Fingerprint() != dup.Fingerprint() {
		t.Fatalf("duplicate structure changed the fingerprint: %x vs %x",
			base.Fingerprint(), dup.Fingerprint())
	}
}

func TestFingerprintNilAndEmpty(t *testing.T) {
	var nilD *Design
	if nilD.Fingerprint() != NewDesign().Fingerprint() {
		t.Fatalf("nil and empty designs disagree: %x vs %x",
			nilD.Fingerprint(), NewDesign().Fingerprint())
	}
}

func TestFingerprintDiscriminates(t *testing.T) {
	a := &fakeStructure{"a", 10}
	seen := map[uint64]string{NewDesign().Fingerprint(): "empty"}
	cases := map[string]*Design{
		"a":        NewDesign(a),
		"b":        NewDesign(&fakeStructure{"b", 10}),
		"a+b":      NewDesign(a, &fakeStructure{"b", 20}),
		"a-resize": NewDesign(&fakeStructure{"a", 11}), // same key, different size
	}
	for name, d := range cases {
		fp := d.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("designs %q and %q collide on %x", name, prev, fp)
		}
		seen[fp] = name
	}
}

func TestFingerprintCached(t *testing.T) {
	d := NewDesign(&fakeStructure{"a", 10}, &fakeStructure{"b", 20})
	first := d.Fingerprint()
	for i := 0; i < 3; i++ {
		if got := d.Fingerprint(); got != first {
			t.Fatalf("fingerprint unstable across calls: %x vs %x", got, first)
		}
	}
}
