//go:build go1.24

package engine

import (
	"runtime"
	"sync"
	"weak"

	"cliffguard/internal/datagen"
	"cliffguard/internal/schema"
)

// warehouses holds the canonical warehouse schema of each scale weakly:
// engines opened at one scale share one read-only schema while any of them
// is reachable, and the schema is collected with the last of them. Nothing
// is pinned, so the share needs no cap; a cleanup drops a collected scale's
// entry.
var warehouses struct {
	mu      sync.Mutex
	byScale map[int64]weak.Pointer[schema.Schema]
}

// warehouse returns datagen.Warehouse(scale), shared with every engine
// still holding the schema built for that scale. Building happens under the
// lock, so concurrent first Opens at one scale build it once.
func warehouse(scale int64) *schema.Schema {
	warehouses.mu.Lock()
	defer warehouses.mu.Unlock()
	if s := warehouses.byScale[scale].Value(); s != nil {
		return s
	}
	s := datagen.Warehouse(scale)
	wp := weak.Make(s)
	if warehouses.byScale == nil {
		warehouses.byScale = make(map[int64]weak.Pointer[schema.Schema])
	}
	warehouses.byScale[scale] = wp
	runtime.AddCleanup(s, func(scale int64) {
		warehouses.mu.Lock()
		defer warehouses.mu.Unlock()
		if warehouses.byScale[scale] == wp {
			delete(warehouses.byScale, scale)
		}
	}, scale)
	return s
}
