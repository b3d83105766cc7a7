package core

import (
	"context"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/distance"
	"cliffguard/internal/obs"
	"cliffguard/internal/rowsim"
	"cliffguard/internal/sample"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/workload"
)

// designCalls splits a run's cost-model calls between its designer calls
// and the rest of the loop: it reads the engine's counter around every
// Design call, through the session when the designer opens one.
type designCalls struct {
	inner designer.Designer
	met   *obs.Metrics
	calls *uint64
}

func (d designCalls) Name() string { return d.inner.Name() }

func (d designCalls) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	before := d.met.CostModelCalls.Load()
	out, err := d.inner.Design(ctx, w)
	*d.calls += d.met.CostModelCalls.Load() - before
	return out, err
}

// sessionCalls is designCalls over a designer that opens sessions.
type sessionCalls struct{ designCalls }

func (d sessionCalls) Session() designer.Designer {
	return designCalls{inner: d.inner.(designer.SessionDesigner).Session(), met: d.met, calls: d.calls}
}

// TestRunCostModelCalls pins one robust run's cost-model calls on both
// engines, at online-drift's loop settings (Γ 0.002, 12 samples, 4
// iterations, Parallelism 1) over online-drift's window: the first 192
// statements of R1 month 0. The designer calls of the run share their pair
// cells through the session, so they make fewer calls than plain designer
// calls, whose counts (and the evaluation layer's, one per vector entry)
// are those the loop made before designer sessions existed.
func TestRunCostModelCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("generates R1")
	}
	s, month, err := designertest.R1Month(1)
	if err != nil {
		t.Fatal(err)
	}
	w0 := &workload.Workload{Items: month.Items[:192]}
	const budget = int64(2560) << 20
	cases := []struct {
		name                string
		open                func(*obs.Metrics) (designer.Designer, designer.CostModel)
		design, plain, eval uint64
	}{
		{"vertsim", func(m *obs.Metrics) (designer.Designer, designer.CostModel) {
			db := vertsim.Open(s)
			db.Instrument(m)
			return vertsim.NewDesigner(db, budget), db
		}, 790, 1660, 1195},
		{"rowsim", func(m *obs.Metrics) (designer.Designer, designer.CostModel) {
			db := rowsim.Open(s)
			db.Instrument(m)
			return rowsim.NewDesigner(db, budget), db
		}, 255, 766, 1195},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(session bool) (design, eval uint64) {
				m := obs.NewMetrics()
				nominal, cost := c.open(m)
				var calls uint64
				dc := designCalls{inner: nominal, met: m, calls: &calls}
				var wrapped designer.Designer = dc
				if session {
					wrapped = sessionCalls{dc}
				}
				cg := New(wrapped, cost, sample.New(distance.NewEuclidean(s.NumColumns()), sample.NewMutator(s)),
					Options{Gamma: 0.002, Samples: 12, Iterations: 4, Seed: 1, Parallelism: 1})
				if _, _, err := cg.DesignWithTrace(context.Background(), w0); err != nil {
					t.Fatal(err)
				}
				return calls, m.CostModelCalls.Load() - calls
			}
			design, eval := run(true)
			plain, plainEval := run(false)
			t.Logf("designer calls: %d with the session, %d without; evaluation calls %d", design, plain, eval)
			if design != c.design || plain != c.plain || eval != c.eval || plainEval != c.eval {
				t.Fatalf("designer calls %d (plain %d), evaluation calls %d (plain %d); want %d (plain %d), %d",
					design, plain, eval, plainEval, c.design, c.plain, c.eval)
			}
			if design >= plain {
				t.Fatalf("the session made %d designer calls, no fewer than the plain designer's %d", design, plain)
			}
		})
	}
}
