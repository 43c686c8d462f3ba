//go:build race

package models

// raceEnabled gates the steady-state allocation pin: race instrumentation
// can add bookkeeping allocations that have nothing to do with the model's
// behaviour, so the exact-zero assertion only runs in uninstrumented builds.
const raceEnabled = true
