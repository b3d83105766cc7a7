package main

import (
	"context"
	"fmt"
	"time"

	"cliffguard"
	"cliffguard/internal/serve"
)

// runOnline replays the loaded workload through online mode: every query
// streams into the sliding window in file order; the first full window
// bootstraps the incumbent design, and each fired drift check triggers a
// incumbent-seeded re-design guarded by the safety acceptance rule. This is the
// CLI twin of the server's /online endpoints — the controller comes from the
// same constructor, with the same determinism — for replaying recorded query
// logs offline.
func runOnline(ctx context.Context, eng cliffguard.Engine, budgetBytes int64, spec serve.OnlineSpec, w *cliffguard.Workload, reg *cliffguard.Metrics, observer cliffguard.Observer, verbose bool) error {
	ctrl, _, err := serve.NewOnline(eng, budgetBytes, spec, nil, reg, observer)
	if err != nil {
		return err
	}

	redesign := func(reason string, at int) error {
		start := time.Now()
		res, err := ctrl.Redesign(ctx)
		if err != nil {
			return fmt.Errorf("re-design (%s, query %d): %w", reason, at, err)
		}
		verdict := "published"
		if res.SafetyRejected {
			verdict = "REJECTED by safety rule (kept incumbent)"
		}
		fmt.Printf("redesign @%-6d %-9s %s in %s: %d structures, worst-case %.0f ms\n",
			at, reason, verdict, time.Since(start).Round(time.Millisecond),
			res.Design.Len(), res.Stats.FinalWorst)
		if verbose {
			for _, tr := range res.Traces {
				fmt.Printf("  iter %2d: alpha=%.3f worst-case %.0f -> candidate %.0f improved=%v\n",
					tr.Iteration, tr.Alpha, tr.WorstCase, tr.CandidateCost, tr.Improved)
			}
		}
		return nil
	}

	// Replay the log in order. The first full window bootstraps the
	// incumbent; after that, fired drift checks trigger re-designs.
	bootstrapped := false
	for i, it := range w.Items {
		if err := ctx.Err(); err != nil {
			return err
		}
		dec := ctrl.Observe(it.Q, it.Weight)
		switch {
		case !bootstrapped && dec.Rotated:
			if err := redesign("bootstrap", i+1); err != nil {
				return err
			}
			bootstrapped = true
		case dec.Fired:
			fmt.Printf("drift    @%-6d delta %.4g > threshold %.4g\n", i+1, dec.Delta, dec.Threshold)
			if err := redesign("drift", i+1); err != nil {
				return err
			}
		}
	}
	if !bootstrapped {
		// Short log: the window never filled; design for what there is.
		if err := redesign("final", w.Len()); err != nil {
			return err
		}
	}

	st := ctrl.Status()
	fmt.Printf("replayed %d queries: %d in window (%d evicted, %d skipped), %d drift checks, %d fired\n",
		st.Window.Observed, st.Window.Queries, st.Window.Evicted, st.Window.Skipped,
		st.DriftChecks, st.DriftFires)
	fmt.Printf("%d re-designs: %d published, %d rejected by the safety rule\n",
		st.Redesigns, st.Published, st.SafetyRejects)
	d := ctrl.Incumbent()
	if d == nil {
		return fmt.Errorf("no design published")
	}
	fmt.Printf("final incumbent: %d structures, %d MiB\n", d.Len(), d.SizeBytes()>>20)
	fmt.Println(d)
	return nil
}
