package evalcache_test

import (
	"context"
	"testing"

	"cliffguard/internal/core"
	"cliffguard/internal/datagen"
	"cliffguard/internal/distance"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/online"
	"cliffguard/internal/sample"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

// onlineReplay is what one online replay published, and the most unit
// costs its warm-start handoff store held after any re-design.
type onlineReplay struct {
	designs   []uint64 // fingerprints of each re-design's candidate
	published []bool
	warmHits  uint64
	peak      int
}

// replayOnline drives a vertica online controller over months, bootstrapping
// on the first window rotation and re-designing whenever drift fires.
func replayOnline(t *testing.T, months []*workload.Workload) onlineReplay {
	t.Helper()
	s := datagen.Warehouse(1)
	db := vertsim.Open(s)
	metric := distance.NewEuclidean(s.NumColumns())
	ctrl, err := online.New(online.Config{
		Designer:      vertsim.NewDesigner(db, 2560<<20),
		Cost:          db,
		Sampler:       sample.New(metric, sample.NewMutator(s)),
		Metric:        metric,
		Options:       core.Options{Gamma: 0.002, Samples: 4, Iterations: 2, Seed: 3, Parallelism: 1},
		DriftFraction: 0.5,
		Window:        online.WindowConfig{Buckets: 4, BucketSize: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out onlineReplay
	bootstrapped := false
	for _, month := range months {
		for _, it := range month.Items {
			dec := ctrl.Observe(it.Q, it.Weight)
			if bootstrapped && !dec.Fired || !bootstrapped && !dec.Rotated {
				continue
			}
			bootstrapped = true
			r, err := ctrl.Redesign(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			out.designs = append(out.designs, r.Design.Fingerprint())
			out.published = append(out.published, r.Published)
			out.warmHits += r.WarmHits
			out.peak = max(out.peak, ctrl.Status().HandoffEntries)
		}
	}
	return out
}

// TestOnlineHandoffPastCap replays three R1 months through an online
// controller twice: with the default entry cap, and with a cap a quarter of
// the most unit costs the first replay's handoff store held. The capped
// controller's stores evict, so it serves fewer warm hits, yet every
// re-design produces and publishes the same design, and no handoff store
// holds more than the cap.
func TestOnlineHandoffPastCap(t *testing.T) {
	cfg := wlgen.R1Config(datagen.Warehouse(1), 1)
	cfg.Months = 3
	cfg.DriftTargets = cfg.DriftTargets[:2]
	set, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	uncapped := replayOnline(t, set.Months)
	if len(uncapped.designs) < 3 || uncapped.warmHits == 0 {
		t.Fatalf("%d re-designs, %d warm hits: the replay must re-design warm", len(uncapped.designs), uncapped.warmHits)
	}
	entryCap := uncapped.peak / 4
	restore := evalcache.SetEntryCap(entryCap)
	defer restore()
	capped := replayOnline(t, set.Months)
	t.Logf("%d re-designs; handoff peak %d uncapped, %d under cap %d; warm hits %d uncapped, %d capped",
		len(uncapped.designs), uncapped.peak, capped.peak, entryCap, uncapped.warmHits, capped.warmHits)
	if capped.peak > entryCap {
		t.Fatalf("a capped handoff store held %d unit costs, cap %d", capped.peak, entryCap)
	}
	if capped.warmHits >= uncapped.warmHits {
		t.Fatalf("%d warm hits capped, %d uncapped: the cap evicted nothing a re-design reused", capped.warmHits, uncapped.warmHits)
	}
	if len(capped.designs) != len(uncapped.designs) {
		t.Fatalf("%d re-designs capped, %d uncapped", len(capped.designs), len(uncapped.designs))
	}
	for i := range capped.designs {
		if capped.designs[i] != uncapped.designs[i] || capped.published[i] != uncapped.published[i] {
			t.Fatalf("re-design %d: design %x published %v capped, %x %v uncapped",
				i, capped.designs[i], capped.published[i], uncapped.designs[i], uncapped.published[i])
		}
	}
}
