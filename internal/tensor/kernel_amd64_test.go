package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// kernelPaths lists the SSE2 floor and, on a CPU with AVX, the AVX tier.
func kernelPaths() []kernelPath {
	paths := []kernelPath{{name: "sse"}}
	if cpuAVX() {
		paths = append(paths, kernelPath{name: "avx", avx: true})
	}
	return paths
}

// use selects p for Axpy and returns the function that restores the
// previous selection.
func (p kernelPath) use() (restore func()) {
	old := useAVX
	useAVX = p.avx
	return func() { useAVX = old }
}

// TestCPUProbeMatchesCPUInfo: the kernel lists avx among a CPU's flags only
// when the CPU has it and the kernel saves the YMM state, the two facts the
// probe reads.
func TestCPUProbeMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if key, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
			want := slices.Contains(strings.Fields(flags), "avx")
			if got := cpuAVX(); got != want {
				t.Fatalf("cpuAVX() = %v, /proc/cpuinfo lists avx: %v", got, want)
			}
			if useAVX != want {
				t.Fatalf("useAVX = %v at start-up, want %v", useAVX, want)
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
