//go:build race

package tensor

// raceEnabled gates the steady-state allocation pin: under the race detector
// sync.Pool drops a share of what is put back, so a pooled scratch is
// rebuilt now and then and the exact-zero assertion only runs in
// uninstrumented builds.
const raceEnabled = true
