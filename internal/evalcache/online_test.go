package evalcache_test

import (
	"context"
	"testing"

	"cliffguard/internal/datagen"
	"cliffguard/internal/engine"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/serve"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

// onlineReplay is what one online replay published, the calls its process
// store answered, and the most unit costs the store held after any
// re-design.
type onlineReplay struct {
	designs   []uint64 // fingerprints of each re-design's candidate
	published []bool
	hits      uint64
	peak      int
}

// replayOnline drives a served vertica online controller, costing through a
// Layer over a fresh process store as cliffguardd wires it, over months:
// it bootstraps on the first window rotation and re-designs whenever drift
// fires.
func replayOnline(t *testing.T, months []*workload.Workload) onlineReplay {
	t.Helper()
	eng, err := engine.Open(engine.Spec{Kind: engine.KindVertica, Schema: datagen.Warehouse(1)})
	if err != nil {
		t.Fatal(err)
	}
	store := evalcache.NewShared()
	ctrl, layer, err := serve.NewOnline(eng, 2560<<20, serve.OnlineSpec{
		RunRequest:    serve.RunRequest{Gamma: 0.002, Samples: 4, Iterations: 2, Seed: 3, Parallelism: 1},
		DriftFraction: 0.5,
		Buckets:       4,
		BucketSize:    48,
	}, store, nil, nil)
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
			out.peak = max(out.peak, store.Len())
		}
	}
	out.hits = layer.Hits()
	return out
}

// TestOnlineRedesignsPastCap replays three R1 months through a served
// online controller twice: with the default entry cap, and with a cap an
// eighth of the most unit costs the first replay's store held. The capped
// store evicts, so it answers fewer calls, yet every re-design produces and
// publishes the same design, and the store never holds more than the cap.
func TestOnlineRedesignsPastCap(t *testing.T) {
	cfg := wlgen.R1Config(datagen.Warehouse(1), 1)
	cfg.Months = 3
	cfg.DriftTargets = cfg.DriftTargets[:2]
	set, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	uncapped := replayOnline(t, set.Months)
	if len(uncapped.designs) < 3 || uncapped.hits == 0 {
		t.Fatalf("%d re-designs, %d store hits: the replay must re-design and reuse unit costs", len(uncapped.designs), uncapped.hits)
	}
	entryCap := uncapped.peak / 8
	restore := evalcache.SetEntryCap(entryCap)
	defer restore()
	capped := replayOnline(t, set.Months)
	t.Logf("%d re-designs; store peak %d uncapped, %d under cap %d; hits %d uncapped, %d capped",
		len(uncapped.designs), uncapped.peak, capped.peak, entryCap, uncapped.hits, capped.hits)
	if capped.peak > entryCap {
		t.Fatalf("a capped store held %d unit costs, cap %d", capped.peak, entryCap)
	}
	if capped.hits >= uncapped.hits {
		t.Fatalf("%d hits capped, %d uncapped: the cap evicted nothing a re-design reused", capped.hits, uncapped.hits)
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
