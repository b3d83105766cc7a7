//go:build race

package rowsim

// raceEnabled reports a -race build, in which sync.Pool drops a random share
// of the objects put back, so allocation counts that rely on pooled scratch
// are not reproducible.
const raceEnabled = true
