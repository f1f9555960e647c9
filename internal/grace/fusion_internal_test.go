package grace

import (
	"fmt"
	"testing"
)

func planInfos(sizes ...int) []TensorInfo {
	infos := make([]TensorInfo, len(sizes))
	for i, s := range sizes {
		infos[i] = NewTensorInfo(fmt.Sprintf("t%d", i), []int{s})
	}
	return infos
}

// checkPlan asserts the structural invariants every bucket plan must satisfy:
// buckets are non-empty, contiguous, ascending, and tile [0, len(infos))
// exactly.
func checkPlan(t *testing.T, infos []TensorInfo, bs []Bucket) {
	t.Helper()
	next := 0
	for i, b := range bs {
		if b.Lo != next || b.Hi <= b.Lo {
			t.Fatalf("bucket %d is [%d,%d), want contiguous from %d", i, b.Lo, b.Hi, next)
		}
		next = b.Hi
	}
	if next != len(infos) {
		t.Fatalf("plan covers [0,%d), want [0,%d)", next, len(infos))
	}
}

func TestPlanBucketsDisabled(t *testing.T) {
	infos := planInfos(10, 20, 30)
	bs := planBuckets(infos, FusionConfig{}, Allreduce)
	checkPlan(t, infos, bs)
	if len(bs) != len(infos) {
		t.Fatalf("disabled fusion produced %d buckets for %d tensors", len(bs), len(infos))
	}
}

func TestPlanBucketsTargetBytes(t *testing.T) {
	// 4 bytes/element estimate: sizes 10,10,10 → 40 bytes each.
	infos := planInfos(10, 10, 10, 10, 10)
	bs := planBuckets(infos, FusionConfig{TargetBytes: 80}, Allgather)
	checkPlan(t, infos, bs)
	// 80-byte target packs exactly two 40-byte tensors per bucket.
	want := []Bucket{{0, 2}, {2, 4}, {4, 5}}
	if len(bs) != len(want) {
		t.Fatalf("got %d buckets %v, want %v", len(bs), bs, want)
	}
	for i := range want {
		if bs[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, bs[i], want[i])
		}
	}
}

func TestPlanBucketsOversizeTensor(t *testing.T) {
	// A tensor above the target still gets a bucket of its own, and packing
	// resumes after it.
	infos := planInfos(2, 1000, 2, 2)
	bs := planBuckets(infos, FusionConfig{TargetBytes: 64}, Allreduce)
	checkPlan(t, infos, bs)
	want := []Bucket{{0, 1}, {1, 2}, {2, 4}}
	for i := range want {
		if i >= len(bs) || bs[i] != want[i] {
			t.Fatalf("got %v, want %v", bs, want)
		}
	}
}

func TestPlanBucketsCustomNeverFuses(t *testing.T) {
	infos := planInfos(1, 1, 1)
	bs := planBuckets(infos, FusionConfig{TargetBytes: 1 << 20}, Custom)
	checkPlan(t, infos, bs)
	if len(bs) != len(infos) {
		t.Fatalf("custom strategy fused: %v", bs)
	}
}

func TestPlanBucketsEmpty(t *testing.T) {
	if bs := planBuckets(nil, FusionConfig{TargetBytes: 64}, Allreduce); bs != nil {
		t.Fatalf("empty tensor set produced buckets: %v", bs)
	}
}

func TestFusionConfigValidate(t *testing.T) {
	if err := (FusionConfig{TargetBytes: -1}).validate(); err == nil {
		t.Fatal("negative TargetBytes accepted")
	}
	if err := (FusionConfig{TargetBytes: 1 << 20}).validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
