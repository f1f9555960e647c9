//go:build !amd64

package cbase

// scanBlocks is scanGeneric everywhere but amd64.
func scanBlocks(g []float32, t, base uint32, out []uint32) int {
	return scanGeneric(g, t, base, out)
}
