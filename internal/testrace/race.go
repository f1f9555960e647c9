//go:build race

// Package testrace tells tests whether the race detector is compiled in:
// allocation-count assertions do not hold under it, because the detector
// allocates on its own account.
package testrace

// Enabled reports that the binary was built with -race.
const Enabled = true
