//go:build !race

package sample_test

const raceEnabled = false
