package portfolio

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/obs"
	"cliffguard/internal/workload"
)

// stub fixtures --------------------------------------------------------------

type stubStructure struct {
	key  string
	size int64
}

func (s stubStructure) Key() string      { return s.key }
func (s stubStructure) SizeBytes() int64 { return s.size }
func (s stubStructure) Describe() string { return "stub " + s.key }

// stubCost is a deterministic toy model: every structure whose key starts
// with "good" shaves 10 off a base cost of 100; a design containing a
// "poison" structure makes every query unsupported.
type stubCost struct{}

func (stubCost) Cost(_ context.Context, _ *workload.Query, d *designer.Design) (float64, error) {
	cost := 100.0
	if d != nil {
		for _, s := range d.Structures {
			if strings.HasPrefix(s.Key(), "poison") {
				return 0, designer.ErrUnsupported
			}
			if strings.HasPrefix(s.Key(), "good") {
				cost -= 10
			}
		}
	}
	return cost, nil
}

// fixedDesigner returns a canned design, error, or blocks until its context
// is cancelled.
type fixedDesigner struct {
	name  string
	d     *designer.Design
	err   error
	block bool
}

func (f *fixedDesigner) Name() string { return f.name }

func (f *fixedDesigner) Design(ctx context.Context, _ *workload.Workload) (*designer.Design, error) {
	if f.block {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if f.err != nil {
		return nil, f.err
	}
	return f.d, nil
}

func stubWorkload() *workload.Workload {
	return workload.New(
		oq(&workload.Spec{Table: "f", SelectCols: []int{0}}),
		oq(&workload.Spec{Table: "f", SelectCols: []int{1}}),
	)
}

func design(keys ...string) *designer.Design {
	var ss []designer.Structure
	for _, k := range keys {
		ss = append(ss, stubStructure{key: k, size: 1 << 20})
	}
	return designer.NewDesign(ss...)
}

// tests ----------------------------------------------------------------------

// TestPortfolioDeterminismAcrossParallelism runs the same degraded race —
// a winner, a weaker member, a duplicate of the winner, an erroring member,
// and a member that sleeps past its timeout — at parallelism 1 and NumCPU,
// and requires bit-identical designs, event streams, and win counters.
// `make race` runs this under the race detector, which makes it the
// portfolio's concurrency gate too.
func TestPortfolioDeterminismAcrossParallelism(t *testing.T) {
	w := stubWorkload()
	run := func(par int) (*designer.Design, []obs.Event, map[string]uint64, error) {
		rec := &obs.Recorder{}
		met := obs.NewMetrics()
		p := New(stubCost{},
			&fixedDesigner{name: "weak", d: design("good-a")},
			&fixedDesigner{name: "erroring", err: errors.New("boom")},
			&fixedDesigner{name: "strong", d: design("good-a", "good-b")},
			&fixedDesigner{name: "hanging", block: true},
			&fixedDesigner{name: "copycat", d: design("good-b", "good-a")},
		)
		p.Parallelism = par
		p.MemberTimeout = 20 * time.Millisecond
		p.Observer = rec
		p.Metrics = met
		d, err := p.Design(context.Background(), w)
		return d, rec.Events(), met.PortfolioWins.Snapshot(), err
	}
	for trial := 0; trial < 5; trial++ {
		d1, ev1, wins1, err1 := run(1)
		dN, evN, winsN, errN := run(runtime.NumCPU())
		if err1 != nil || errN != nil {
			t.Fatalf("trial %d: err1=%v errN=%v", trial, err1, errN)
		}
		if d1.Fingerprint() != dN.Fingerprint() || d1.String() != dN.String() {
			t.Fatalf("trial %d: designs differ across parallelism:\n p=1: %s\n p=N: %s", trial, d1, dN)
		}
		if d1.Len() != 2 {
			t.Fatalf("trial %d: wrong winner design: %s", trial, d1)
		}
		if !reflect.DeepEqual(ev1, evN) {
			t.Fatalf("trial %d: event streams differ:\n p=1: %v\n p=N: %v", trial, ev1, evN)
		}
		if !reflect.DeepEqual(wins1, winsN) {
			t.Fatalf("trial %d: win counters differ: %v vs %v", trial, wins1, winsN)
		}
		// "strong" and "copycat" share the winning fingerprint; the earlier
		// member must take the win.
		if wins1["strong"] != 1 {
			t.Fatalf("trial %d: wins = %v, want strong=1", trial, wins1)
		}
	}
}

// TestPortfolioEventOrder pins the observable contract: one DesignerInvoked
// event per successful member, emitted in member-index order regardless of
// completion order.
func TestPortfolioEventOrder(t *testing.T) {
	rec := &obs.Recorder{}
	p := New(stubCost{},
		&fixedDesigner{name: "m0", d: design("good-a")},
		&fixedDesigner{name: "m1", d: design("good-b")},
		&fixedDesigner{name: "m2", d: design("good-c")},
	)
	p.Observer = rec
	if _, err := p.Design(context.Background(), stubWorkload()); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range rec.Events() {
		di, ok := ev.(obs.DesignerInvoked)
		if !ok {
			t.Fatalf("unexpected event %T", ev)
		}
		names = append(names, di.Designer)
	}
	if want := []string{"m0", "m1", "m2"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("event order %v, want %v", names, want)
	}
}

// TestPortfolioMemberTimeout: a hanging member is skipped after
// MemberTimeout, counted, and never deadlocks the race.
func TestPortfolioMemberTimeout(t *testing.T) {
	met := obs.NewMetrics()
	p := New(stubCost{},
		&fixedDesigner{name: "hanging", block: true},
		&fixedDesigner{name: "ok", d: design("good-a")},
	)
	p.MemberTimeout = 10 * time.Millisecond
	p.Metrics = met
	done := make(chan struct{})
	var d *designer.Design
	var err error
	go func() { d, err = p.Design(context.Background(), stubWorkload()); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("portfolio deadlocked on a hanging member")
	}
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("wrong design: %s", d)
	}
	if got := met.PortfolioMemberTimeouts.Load(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
	if got := met.PortfolioWins.Load("ok"); got != 1 {
		t.Fatalf("wins[ok] = %d, want 1", got)
	}
}

// TestPortfolioErrorMember: a failing member is counted and skipped.
func TestPortfolioErrorMember(t *testing.T) {
	met := obs.NewMetrics()
	p := New(stubCost{},
		&fixedDesigner{name: "bad", err: errors.New("boom")},
		&fixedDesigner{name: "ok", d: design("good-a")},
	)
	p.Metrics = met
	d, err := p.Design(context.Background(), stubWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("wrong design: %s", d)
	}
	if got := met.PortfolioMemberErrors.Load(); got != 1 {
		t.Fatalf("error counter = %d, want 1", got)
	}
}

// TestPortfolioUnscorableMember: a member whose design cannot be costed on
// any scoring workload is skipped like an erroring one.
func TestPortfolioUnscorableMember(t *testing.T) {
	met := obs.NewMetrics()
	p := New(stubCost{},
		&fixedDesigner{name: "poisoned", d: design("poison-x")},
		&fixedDesigner{name: "ok", d: design("good-a")},
	)
	p.Metrics = met
	d, err := p.Design(context.Background(), stubWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || d.Structures[0].Key() != "good-a" {
		t.Fatalf("wrong design: %s", d)
	}
	if got := met.PortfolioMemberErrors.Load(); got != 1 {
		t.Fatalf("error counter = %d, want 1", got)
	}
}

// countingCost is stubCost with a per-design call tally.
type countingCost struct {
	mu    sync.Mutex
	calls map[uint64]int // design fingerprint -> Cost calls
}

func (c *countingCost) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	c.mu.Lock()
	c.calls[d.Fingerprint()]++
	c.mu.Unlock()
	return stubCost{}.Cost(ctx, q, d)
}

// TestPortfolioScoresEachDesignOnce: two members returning the same design
// cost one scoring pass, |w| calls, and a member whose design leaves every
// query unsupported is scored once and skipped.
func TestPortfolioScoresEachDesignOnce(t *testing.T) {
	w := stubWorkload()
	cost := &countingCost{calls: make(map[uint64]int)}
	met := obs.NewMetrics()
	p := New(cost,
		&fixedDesigner{name: "first", d: design("good-a")},
		&fixedDesigner{name: "poisoned", d: design("poison-x")},
		&fixedDesigner{name: "twin", d: design("good-a")},
	)
	p.Metrics = met
	d, err := p.Design(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || d.Structures[0].Key() != "good-a" {
		t.Fatalf("wrong design: %s", d)
	}
	for _, scored := range []*designer.Design{design("good-a"), design("poison-x")} {
		if got := cost.calls[scored.Fingerprint()]; got != w.Len() {
			t.Fatalf("%s scored with %d Cost calls, want |w| = %d", scored, got, w.Len())
		}
	}
	if got := met.PortfolioMemberErrors.Load(); got != 1 {
		t.Fatalf("error counter = %d, want 1 (the unscorable member)", got)
	}
	if got := met.PortfolioWins.Snapshot(); got["first"] != 1 || got["twin"] != 0 {
		t.Fatalf("wins = %v, want first=1", got)
	}
}

// TestPortfolioAllMembersFail: the first member error surfaces, wrapped.
func TestPortfolioAllMembersFail(t *testing.T) {
	first := errors.New("first failure")
	p := New(stubCost{},
		&fixedDesigner{name: "bad0", err: first},
		&fixedDesigner{name: "bad1", err: errors.New("second failure")},
	)
	_, err := p.Design(context.Background(), stubWorkload())
	if !errors.Is(err, first) {
		t.Fatalf("err = %v, want wrapped %v", err, first)
	}
}

// TestPortfolioTieBreakFingerprint: equal worst-case costs resolve to the
// lexicographically smaller fingerprint, independent of member order.
func TestPortfolioTieBreakFingerprint(t *testing.T) {
	// Both designs cost the same under stubCost (one "good" structure each)
	// but have different fingerprints.
	dA, dB := design("good-a"), design("good-b")
	want := dA
	if dB.Fingerprint() < dA.Fingerprint() {
		want = dB
	}
	for _, order := range [][]*designer.Design{{dA, dB}, {dB, dA}} {
		p := New(stubCost{},
			&fixedDesigner{name: "m0", d: order[0]},
			&fixedDesigner{name: "m1", d: order[1]},
		)
		got, err := p.Design(context.Background(), stubWorkload())
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("order %s/%s: winner %s, want %s", order[0], order[1], got, want)
		}
	}
}

// TestPortfolioParentCancellation: cancelling the caller's context aborts
// the whole portfolio even while a member hangs (no MemberTimeout set).
func TestPortfolioParentCancellation(t *testing.T) {
	p := New(stubCost{},
		&fixedDesigner{name: "hanging", block: true},
		&fixedDesigner{name: "ok", d: design("good-a")},
	)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := p.Design(ctx, stubWorkload())
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("portfolio did not observe parent cancellation")
	}
}

// TestPortfolioValidation covers the argument errors.
func TestPortfolioValidation(t *testing.T) {
	p := New(stubCost{})
	if _, err := p.Design(context.Background(), stubWorkload()); err == nil {
		t.Error("no members should fail")
	}
	p = New(stubCost{}, &fixedDesigner{name: "ok", d: design("good-a")})
	if _, err := p.Design(context.Background(), nil); err == nil {
		t.Error("nil workload should fail")
	}
	if _, err := p.Design(context.Background(), &workload.Workload{}); err == nil {
		t.Error("empty workload should fail")
	}
}

// TestPortfolioIterationTag: the DesignerInvoked events carry the iteration
// from the context (the robust loop's tag), defaulting to -1.
func TestPortfolioIterationTag(t *testing.T) {
	for _, iter := range []int{-1, 0, 7} {
		rec := &obs.Recorder{}
		p := New(stubCost{}, &fixedDesigner{name: "ok", d: design("good-a")})
		p.Observer = rec
		ctx := context.Background()
		if iter >= 0 {
			ctx = obs.ContextWithIteration(ctx, iter)
		}
		if _, err := p.Design(ctx, stubWorkload()); err != nil {
			t.Fatal(err)
		}
		evs := rec.Events()
		if len(evs) != 1 {
			t.Fatalf("got %d events, want 1", len(evs))
		}
		if got := evs[0].(obs.DesignerInvoked).Iteration; got != iter {
			t.Fatalf("iteration = %d, want %d", got, iter)
		}
	}
}

var _ fmt.Stringer = (*designer.Design)(nil) // Design.String is part of the determinism checks above
