package portfolio

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/obs"
	"cliffguard/internal/pool"
	"cliffguard/internal/workload"
)

// Portfolio races k member designers on the same workload and keeps the best
// design by its normalized cost f(w, D) on the input workload — the
// RITA-style "race tuning strategies under a shared budget" idea, with a
// DBA-bandits-style safety rule: the kept design is never strictly worse
// than any member's on w.
//
// Members run concurrently under a bounded worker pool; each member is
// internally sequential, results land in a member-index-aligned slice, and
// every reduction walks that slice in index order, so the output design is
// bit-identical at any Parallelism. Each distinct design fingerprint is
// scored once: two members returning the same design cost one pass over w.
//
// Scoring on w alone is the right semantics inside the robust loop, which
// supplies its own Γ-neighborhood evaluation of the winner.
type Portfolio struct {
	// Members are the raced designers, in priority order: ties in cost and
	// fingerprint keep the earliest member.
	Members []designer.Designer
	// Cost is the what-if cost model used to score member designs.
	Cost designer.CostModel

	// Parallelism bounds the member-invocation worker pool (0 or negative =
	// runtime.NumCPU()). Results are bit-identical at any value.
	Parallelism int
	// MemberTimeout bounds each member's Design call (0 = no bound). A
	// member exceeding it is skipped — counted, never fatal — while the
	// parent context's cancellation always aborts the whole portfolio.
	MemberTimeout time.Duration

	// Observer receives one obs.DesignerInvoked event per successful member,
	// emitted after the race in member-index order (deterministic). nil
	// disables emission.
	Observer obs.Observer
	// Metrics aggregates portfolio counters (runs, member errors/timeouts,
	// wins per member). nil disables metric updates.
	Metrics *obs.Metrics
}

// New returns a Portfolio over the given members with no member timeout.
func New(cost designer.CostModel, members ...designer.Designer) *Portfolio {
	return &Portfolio{Members: members, Cost: cost}
}

// Name implements designer.Designer.
func (p *Portfolio) Name() string { return "Portfolio" }

// memberOut is one member's race outcome, index-aligned with Members.
type memberOut struct {
	d   *designer.Design
	err error
}

// Design implements designer.Designer: race the members, score each distinct
// returned design on w, keep the best.
func (p *Portfolio) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if w == nil || w.Len() == 0 {
		return nil, errors.New("portfolio: empty workload")
	}
	if len(p.Members) == 0 {
		return nil, errors.New("portfolio: no member designers")
	}
	if p.Metrics != nil {
		p.Metrics.PortfolioRuns.Inc()
	}

	outs := p.race(ctx, w)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Gather in member-index order: emit per-member DesignerInvoked events,
	// score each distinct fingerprint once, and keep the winner. The winner
	// is the minimum cost; ties break to the lexicographically smaller
	// fingerprint (fixed-width hex, i.e. the smaller uint64), then to the
	// earlier member.
	iter := obs.IterationFromContext(ctx)
	type score struct {
		cost float64
		err  error
	}
	scores := make(map[uint64]score)
	bestIdx := -1
	var bestCost float64
	var bestFP uint64
	var firstErr error
	for i, out := range outs {
		member := p.Members[i]
		if out.err != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if p.Metrics != nil {
				if errors.Is(out.err, context.DeadlineExceeded) {
					p.Metrics.PortfolioMemberTimeouts.Inc()
				} else {
					p.Metrics.PortfolioMemberErrors.Inc()
				}
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("member %s: %w", member.Name(), out.err)
			}
			continue
		}
		if p.Observer != nil {
			p.Observer.OnEvent(obs.DesignerInvoked{
				Iteration:  iter,
				Designer:   member.Name(),
				Queries:    w.Len(),
				Structures: out.d.Len(),
				SizeBytes:  out.d.SizeBytes(),
			})
		}
		fp := out.d.Fingerprint()
		sc, ok := scores[fp]
		if !ok {
			c, err := designer.MeanCost(ctx, p.Cost, w, out.d)
			sc = score{cost: c, err: err}
			scores[fp] = sc
		}
		if sc.err != nil {
			if !errors.Is(sc.err, designer.ErrNoCostableQuery) {
				return nil, sc.err
			}
			if p.Metrics != nil {
				p.Metrics.PortfolioMemberErrors.Inc()
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("member %s: %w", member.Name(), sc.err)
			}
			continue
		}
		if bestIdx < 0 || sc.cost < bestCost || (sc.cost == bestCost && fp < bestFP) {
			bestIdx, bestCost, bestFP = i, sc.cost, fp
		}
	}
	if bestIdx < 0 {
		if firstErr == nil {
			firstErr = errors.New("no member produced a design")
		}
		return nil, fmt.Errorf("portfolio: every member failed: %w", firstErr)
	}
	if p.Metrics != nil {
		p.Metrics.PortfolioWins.Inc(p.Members[bestIdx].Name())
	}
	return outs[bestIdx].d, nil
}

// race invokes every member concurrently under the bounded pool. Each
// member's Design call runs in a single goroutine under its own
// timeout-bounded child context; outputs are member-index-aligned.
func (p *Portfolio) race(ctx context.Context, w *workload.Workload) []memberOut {
	outs := make([]memberOut, len(p.Members))
	pool.Run(p.Parallelism, len(p.Members), func(_, i int) {
		mctx := ctx
		cancel := context.CancelFunc(func() {})
		if p.MemberTimeout > 0 {
			mctx, cancel = context.WithTimeout(ctx, p.MemberTimeout)
		}
		d, err := p.Members[i].Design(mctx, w)
		cancel()
		if err == nil && d == nil {
			err = errors.New("designer returned a nil design")
		}
		outs[i] = memberOut{d: d, err: err}
	})
	return outs
}
