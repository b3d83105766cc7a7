//go:build !go1.24

package engine

import (
	"cliffguard/internal/datagen"
	"cliffguard/internal/schema"
)

// warehouse builds the scale's warehouse schema for every Open: sharing it
// needs the weak pointers of Go 1.24 (warehouse.go).
func warehouse(scale int64) *schema.Schema { return datagen.Warehouse(scale) }
