//go:build !race

package rowsim

const raceEnabled = false
