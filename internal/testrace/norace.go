//go:build !race

package testrace

// Enabled reports that the binary was built with -race.
const Enabled = false
