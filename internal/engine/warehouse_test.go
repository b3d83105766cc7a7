//go:build go1.24

package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"cliffguard/internal/datagen"
	"cliffguard/internal/schema"
)

func mustOpen(t *testing.T, spec Spec) Engine {
	t.Helper()
	eng, err := Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestWarehouseSharedPerScale: engines opened at one scale, of any kind,
// share one schema; another scale, an explicit Schema and a dataset each
// get their own.
func TestWarehouseSharedPerScale(t *testing.T) {
	a := mustOpen(t, Spec{Kind: KindVertica, Scale: 2})
	b := mustOpen(t, Spec{Kind: KindRowStore, Scale: 2})
	c := mustOpen(t, Spec{Kind: KindApprox, Scale: 2})
	if a.Schema() != b.Schema() || a.Schema() != c.Schema() {
		t.Fatal("engines at one scale hold different warehouse schemas")
	}
	if d := mustOpen(t, Spec{Kind: KindVertica, Scale: 3}); d.Schema() == a.Schema() {
		t.Fatal("engines at scales 2 and 3 share a schema")
	}
	own := datagen.Warehouse(2)
	if e := mustOpen(t, Spec{Kind: KindVertica, Scale: 2, Schema: own}); e.Schema() != own {
		t.Fatal("an engine given a Schema does not hold it")
	}
	data := datagen.Generate(datagen.Warehouse(1), 64, 1)
	if e := mustOpen(t, Spec{Kind: KindRowStore, Data: data}); e.Schema() != data.Schema {
		t.Fatal("a dataset-backed engine does not hold the dataset's schema")
	}
}

// openWeak opens an engine at scale and returns only a weak pointer to its
// schema, so no reference survives on the caller's stack.
//
//go:noinline
func openWeak(t *testing.T, scale int64) weak.Pointer[schema.Schema] {
	return weak.Make(mustOpen(t, Spec{Kind: KindVertica, Scale: scale}).Schema())
}

// TestWarehouseNotPinned: once every engine at a scale is unreachable, a GC
// collects the shared schema and a cleanup drops its entry; the next Open
// builds a fresh one.
func TestWarehouseNotPinned(t *testing.T) {
	const scale = 5
	old := openWeak(t, scale)
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		warehouses.mu.Lock()
		_, held := warehouses.byScale[scale]
		warehouses.mu.Unlock()
		if old.Value() == nil && !held {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the scale-%d schema is still held after its engines were dropped (collected %v, entry %v)",
				scale, old.Value() == nil, held)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fresh := mustOpen(t, Spec{Kind: KindVertica, Scale: scale})
	if weak.Make(fresh.Schema()) == old {
		t.Fatal("Open returned the collected schema")
	}
	if tbl, ok := fresh.Schema().Table("sales"); !ok || tbl.Rows != datagen.Warehouse(scale).Tables()[0].Rows {
		t.Fatalf("fresh scale-%d schema: sales = %+v", scale, tbl)
	}
}

// TestWarehouseConcurrentOpen: concurrent Opens across kinds and scales
// (run it under -race) all see one schema per scale.
func TestWarehouseConcurrentOpen(t *testing.T) {
	kinds := []string{KindVertica, KindRowStore, KindApprox}
	scales := []int64{6, 7}
	const workers, opens = 8, 12
	got := make([][]Engine, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opens; i++ {
				eng, err := Open(Spec{Kind: kinds[(w+i)%len(kinds)], Scale: scales[(w+i)%len(scales)]})
				if err != nil {
					panic(fmt.Sprint(err))
				}
				got[w] = append(got[w], eng)
			}
		}(w)
	}
	wg.Wait()
	first := map[int64]*schema.Schema{}
	for w := range got {
		for i, eng := range got[w] {
			scale := scales[(w+i)%len(scales)]
			if s, ok := first[scale]; !ok {
				first[scale] = eng.Schema()
			} else if eng.Schema() != s {
				t.Fatalf("worker %d open %d at scale %d holds another schema", w, i, scale)
			}
		}
	}
	if first[6] == first[7] {
		t.Fatal("scales 6 and 7 share a schema")
	}
}
