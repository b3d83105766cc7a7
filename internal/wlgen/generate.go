package wlgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"cliffguard/internal/distance"
	"cliffguard/internal/schema"
	"cliffguard/internal/sqlparse"
	"cliffguard/internal/workload"
)

// Config describes one generated workload. Use R1Config/S1Config/S2Config
// for the paper's presets.
//
// The generator models the structure the paper reports for R1: the bulk of
// the query mass is broad reporting/housekeeping work that no physical
// design helps much (only 515 of R1's 15.5K parseable queries had >= 3x
// design headroom, Section 6.4), while a small designable stratum of
// selective analytical queries churns heavily. delta_euclidean — computed
// over ALL queries — is therefore driven by the broad strata, while the
// designer experiments live on the designable slice.
type Config struct {
	Name   string
	Schema *schema.Schema
	Seed   int64

	// Months is the number of 4-week design windows (the paper's R1 spans
	// ~13 of them).
	Months int
	// QueriesPerWeek controls workload volume.
	QueriesPerWeek int
	// Start is the first query timestamp.
	Start time.Time
	// ActiveTemplates is the size of the live template pool.
	ActiveTemplates int
	// CoreFraction is the share of workload mass held by long-lived "core"
	// templates that never churn; it produces Figure 5's overlap plateau.
	CoreFraction float64
	// DesignableFraction is the share of mass held by designable templates
	// (selective analytical queries). The remainder
	// (1 - CoreFraction - DesignableFraction) is broad, non-designable,
	// churning mass that dominates delta_euclidean.
	DesignableFraction float64
	// ChurnScale converts a monthly drift target into the designable
	// stratum's churn rate: rate = clamp(target/ChurnScale, 0.05, 0.85).
	// Low-drift workloads (S1) therefore keep their designable templates,
	// while R1/S2-scale drift churns most of them every month.
	ChurnScale float64
	// DriftTargets are per-month-gap delta_euclidean targets (length
	// Months-1); the broad stratum's weekly churn is calibrated by bisection
	// to hit them.
	DriftTargets []float64
	// RoundTripSQL renders every query to SQL text and re-parses it, so the
	// emitted queries have gone through the full parser path.
	RoundTripSQL bool
}

// Set is a generated workload: the query stream plus its monthly windows.
type Set struct {
	Config  *Config
	Queries []*workload.Query
	// Months[i] is the i-th 4-week window.
	Months []*workload.Workload
	// AchievedDrift[i] is the calibrated delta between months i and i+1
	// measured on template distributions.
	AchievedDrift []float64
}

const weeksPerMonth = 4

// weekDuration is one 7-day slice of the stream.
const weekDuration = 7 * 24 * time.Hour

// stratum classifies a template's lifecycle.
type stratum int

const (
	stratumCore       stratum = iota // never churns
	stratumBroad                     // churns to drive delta
	stratumDesignable                // churns at the target-linked rate
)

// tmplWeight is one entry of the live template distribution.
type tmplWeight struct {
	t *template
	w float64
	s stratum
}

// Generate runs the drift process and emits the query stream.
func (c *Config) Generate() (*Set, error) {
	if c.Schema == nil {
		return nil, fmt.Errorf("wlgen: nil schema")
	}
	if c.Months < 2 {
		return nil, fmt.Errorf("wlgen: need at least 2 months, got %d", c.Months)
	}
	if len(c.DriftTargets) != c.Months-1 {
		return nil, fmt.Errorf("wlgen: need %d drift targets, got %d", c.Months-1, len(c.DriftTargets))
	}
	if c.QueriesPerWeek <= 0 {
		return nil, fmt.Errorf("wlgen: QueriesPerWeek must be positive")
	}
	rng := rand.New(rand.NewSource(c.Seed))
	factory, err := newTemplateFactory(c.Schema, rng)
	if err != nil {
		return nil, err
	}
	metric := distance.NewEuclidean(c.Schema.NumColumns())

	coreFrac := c.CoreFraction
	if coreFrac <= 0 || coreFrac >= 1 {
		coreFrac = 0.35
	}
	desigFrac := c.DesignableFraction
	if desigFrac <= 0 || desigFrac >= 1 {
		desigFrac = 0.12
	}
	broadFrac := 1 - coreFrac - desigFrac
	if broadFrac <= 0 {
		return nil, fmt.Errorf("wlgen: CoreFraction + DesignableFraction must stay below 1")
	}
	churnScale := c.ChurnScale
	if churnScale <= 0 {
		churnScale = 0.0015
	}

	nT := c.ActiveTemplates
	if nT <= 0 {
		nT = 90
	}
	// Template counts per stratum: designable templates are few in mass but
	// not in variety (the paper's 515 designable queries spanned many
	// templates).
	nDesig := nT * 2 / 5
	nCore := nT / 4
	nBroad := nT - nDesig - nCore

	var dist []tmplWeight
	addStratum := func(n int, frac float64, st stratum, zipfExp float64, mk func(*rand.Rand) *template) {
		start := len(dist)
		var total float64
		for i := 0; i < n; i++ {
			w := 1.0 / math.Pow(float64(i+1), zipfExp)
			dist = append(dist, tmplWeight{t: mk(rng), w: w, s: st})
			total += w
		}
		for i := start; i < len(dist); i++ {
			dist[i].w *= frac / total
		}
	}
	addStratum(nCore, coreFrac, stratumCore, 1.0, factory.newCoreTemplate)
	addStratum(nBroad, broadFrac, stratumBroad, 1.0, factory.newCoreTemplate)
	addStratum(nDesig, desigFrac, stratumDesignable, 1.2, factory.newTemplate)

	set := &Set{Config: c}
	parser := sqlparse.NewParser(c.Schema)
	start := c.Start
	if start.IsZero() {
		start = time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)
	}

	emitWeek := func(weekIdx int, d []tmplWeight) error {
		wStart := start.Add(time.Duration(weekIdx) * weekDuration)
		counts := apportion(d, c.QueriesPerWeek)
		qIdx := 0
		for i, tw := range d {
			for k := 0; k < counts[i]; k++ {
				spec := tw.t.instantiate(rng)
				ts := wStart.Add(time.Duration(float64(weekDuration) * float64(qIdx) / float64(c.QueriesPerWeek)))
				var q *workload.Query
				if c.RoundTripSQL {
					sql, err := sqlparse.Render(c.Schema, spec)
					if err != nil {
						return fmt.Errorf("wlgen: rendering query: %w", err)
					}
					q, err = parser.ParseAt(sql, workload.NextID(), ts)
					if err != nil {
						return fmt.Errorf("wlgen: re-parsing %q: %w", sql, err)
					}
				} else {
					q = workload.FromSpec(workload.NextID(), ts, spec)
				}
				set.Queries = append(set.Queries, q)
				qIdx++
			}
		}
		return nil
	}

	// Month 0: no drift.
	weekIdx := 0
	for wk := 0; wk < weeksPerMonth; wk++ {
		if err := emitWeek(weekIdx, dist); err != nil {
			return nil, err
		}
		weekIdx++
	}
	prevMonthDist := cloneDist(dist)

	for month := 1; month < c.Months; month++ {
		target := c.DriftTargets[month-1]

		// Designable churn is tied to the drift target, not calibrated: the
		// designable slice is too light to register in delta, but its churn
		// is what breaks nominal designs (Section 6.4).
		desigRate := target / churnScale
		if desigRate < 0.05 {
			desigRate = 0.05
		}
		if desigRate > 0.85 {
			desigRate = 0.85
		}
		// Designable churn is applied once at the month boundary: the
		// analytical questions of record change with the business cycle,
		// while the broad reporting mass drifts continuously (weekly). This
		// also keeps a design window free of designable template families,
		// which would otherwise leak tomorrow's variants into today's
		// designer input.
		mDesig := desigFrac * desigRate

		// The churn plan depends only on the seed and month, not on the
		// churn mass, so the bisection below is over a deterministic,
		// near-monotone function (see driftStep).
		stepSeed := c.Seed*1_000_003 + int64(month)*7919
		apply := func(mBroad float64) []tmplWeight {
			cur := cloneDist(dist)
			for wk := 0; wk < weeksPerMonth; wk++ {
				md := 0.0
				if wk == 0 {
					md = mDesig
				}
				cur = driftStep(cur, md, mBroad, factory, stepSeed+int64(wk))
			}
			return cur
		}
		measure := func(d []tmplWeight) float64 {
			return metric.Distance(distWorkload(prevMonthDist, factory), distWorkload(d, factory))
		}

		// Bisect the broad stratum's weekly churn mass to hit the monthly
		// drift target.
		lo, hi := 0.0, broadFrac
		var chosen []tmplWeight
		if target <= 0 {
			chosen = apply(0)
		} else if measure(apply(0)) >= target {
			chosen = apply(0) // designable churn alone reaches the target
		} else if measure(apply(hi)) < target {
			chosen = apply(hi) // saturate: record achieved drift below
		} else {
			for i := 0; i < 28; i++ {
				mid := (lo + hi) / 2
				if measure(apply(mid)) < target {
					lo = mid
				} else {
					hi = mid
				}
			}
			chosen = apply((lo + hi) / 2)
		}
		set.AchievedDrift = append(set.AchievedDrift, measure(chosen))
		dist = chosen
		prevMonthDist = cloneDist(dist)

		for wk := 0; wk < weeksPerMonth; wk++ {
			if err := emitWeek(weekIdx, dist); err != nil {
				return nil, err
			}
			weekIdx++
		}
	}

	set.Months = workload.Windows(set.Queries, weeksPerMonth*weekDuration)
	return set, nil
}

// driftStep retires templates carrying mDesig mass from the designable
// stratum and mBroad mass from the broad stratum, replacing each retired
// template with a mutation of itself at the same weight. The boundary
// template of each stratum is split fractionally so the moved mass is exact.
//
// Determinism: retirement order is a keyed hash of (stepSeed, template ID)
// and each mutation's RNG is seeded the same way, so the result does not
// depend on how much mass the calibration loop asks to move.
func driftStep(d []tmplWeight, mDesig, mBroad float64, factory *templateFactory, stepSeed int64) []tmplWeight {
	hash := func(id int) int64 {
		h := stepSeed ^ int64(id)*0x5DEECE66D
		h ^= h >> 17
		h *= 0x27D4EB2F
		h ^= h >> 13
		return h
	}
	out := cloneDist(d)
	churn := func(st stratum, m float64) {
		if m <= 0 {
			return
		}
		var idxs []int
		for i, tw := range out {
			if tw.s == st {
				idxs = append(idxs, i)
			}
		}
		sort.SliceStable(idxs, func(a, b int) bool {
			return hash(out[idxs[a]].t.id) < hash(out[idxs[b]].t.id)
		})
		remaining := m
		for _, idx := range idxs {
			if remaining <= 0 {
				break
			}
			w := out[idx].w
			if w <= 0 {
				continue
			}
			moved := math.Min(w, remaining)
			remaining -= moved
			repl := factory.mutate(factory.seeded(hash(out[idx].t.id)|1), out[idx].t, st == stratumDesignable)
			out[idx].w = w - moved
			out = append(out, tmplWeight{t: repl, w: moved, s: st})
		}
	}
	churn(stratumDesignable, mDesig)
	churn(stratumBroad, mBroad)

	// Drop zero-weight entries.
	pruned := out[:0]
	for _, tw := range out {
		if tw.w > 1e-12 {
			pruned = append(pruned, tw)
		}
	}
	return pruned
}

// distWorkload converts a template distribution into a workload of
// representative queries for distance measurement.
func distWorkload(d []tmplWeight, factory *templateFactory) *workload.Workload {
	w := &workload.Workload{}
	for _, tw := range d {
		w.Add(tw.t.representative(factory), tw.w)
	}
	return w
}

func cloneDist(d []tmplWeight) []tmplWeight {
	out := make([]tmplWeight, len(d))
	copy(out, d)
	return out
}

// apportion distributes n queries across the distribution's weights using
// largest-remainder rounding, so empirical frequencies track the
// distribution closely (keeping measured drift near the calibrated drift).
func apportion(d []tmplWeight, n int) []int {
	total := 0.0
	for _, tw := range d {
		total += tw.w
	}
	counts := make([]int, len(d))
	type rem struct {
		idx  int
		frac float64
	}
	var rems []rem
	assigned := 0
	for i, tw := range d {
		exact := float64(n) * tw.w / total
		counts[i] = int(exact)
		assigned += counts[i]
		rems = append(rems, rem{i, exact - float64(counts[i])})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; assigned < n && i < len(rems); i++ {
		counts[rems[i].idx]++
		assigned++
	}
	return counts
}
