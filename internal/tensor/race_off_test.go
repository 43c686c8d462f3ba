//go:build !race

package tensor

// raceEnabled is false in uninstrumented builds; see race_on_test.go.
const raceEnabled = false
