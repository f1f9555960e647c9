package cbase

// scanBlocks is scanGeneric on amd64's SSE2 kernel: scanSSE takes the
// 16-element blocks, the Go twin the rest.
func scanBlocks(g []float32, t, base uint32, out []uint32) int {
	body := len(g) &^ 15
	n := scanSSE(g[:body], t, base, out[:body])
	return n + scanGeneric(g[body:], t, base+uint32(body), out[n:])
}

// scanSSE reads len(g), a multiple of 16, only: the caller guarantees
// len(out) >= len(g).
//
//go:noescape
func scanSSE(g []float32, t, base uint32, out []uint32) int
