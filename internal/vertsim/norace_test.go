//go:build !race

package vertsim

const raceEnabled = false
