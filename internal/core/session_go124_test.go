//go:build go1.24

package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"weak"

	"cliffguard/internal/designer"
	"cliffguard/internal/vertsim"
)

// sessionProbe hands out its designer's sessions, wrapped, and keeps a weak
// pointer to each wrapper; the wrapper is the only holder of the session.
type sessionProbe struct {
	designer.SessionDesigner
	opened []weak.Pointer[probeSession]
}

type probeSession struct{ designer.Designer }

func (p *sessionProbe) Session() designer.Designer {
	s := &probeSession{p.SessionDesigner.Session()}
	p.opened = append(p.opened, weak.Make(s))
	return s
}

// collected reports, after GCs for up to 5 s, whether every session the
// probe opened has been collected.
func (p *sessionProbe) collected() bool {
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		live := 0
		for _, w := range p.opened {
			if w.Value() != nil {
				live++
			}
		}
		if live == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionDiesWithRun: a run opens one designer session, and once Await
// returns nothing reachable holds it, while the handle, its design and its
// traces stay reachable.
func TestSessionDiesWithRun(t *testing.T) {
	s := testSchema()
	w := testWorkload(s, rand.New(rand.NewSource(9)), 10)
	cg, db := newGuard(s, Options{Gamma: 0.004, Samples: 8, Iterations: 3, Seed: 9, Parallelism: 2})
	probe := &sessionProbe{SessionDesigner: vertsim.NewDesigner(db, 256<<20)}
	cg.Nominal = probe
	h := cg.Start(context.Background(), w)
	d, _, err := h.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.opened) != 1 {
		t.Fatalf("the run opened %d sessions, want 1", len(probe.opened))
	}
	if !probe.collected() {
		t.Fatal("the run's designer session is still reachable after Await returned")
	}
	runtime.KeepAlive(h)
	runtime.KeepAlive(d)
}
