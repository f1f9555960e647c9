package grace

import "fmt"

// FusionConfig sets the Engine's tensor-fusion batching policy: how per-step
// gradients are packed into buckets so one collective round carries many
// tensors' payloads (Horovod/DDP-style bucket fusion).
//
// Fusion batches the *exchange*, never the codec: compression, error-feedback
// residuals, codec state, and decode-fault recovery all stay per-tensor, so a
// fused step is bitwise-identical to the unfused one on the in-process hub
// (whose allreduce sums per element in rank order, making summation
// position-independent) and internally consistent on any transport. Buckets
// are planned from the tensor metadata alone — never from payload contents or
// sizes, which can differ per rank — so every worker derives the identical
// bucket layout and the collective sequence stays in lockstep.
type FusionConfig struct {
	// TargetBytes is the bucket fill target: consecutive tensors are packed
	// into one bucket until their estimated payload volume (uncompressed
	// width, 4 bytes/element — a rank-independent estimate) would exceed it.
	// 0 disables fusion: every tensor travels in its own collective round —
	// a bucket of one, whose frame is the bare payload — which is the
	// per-tensor schedule exactly. Custom-strategy tensors are never fused
	// regardless (the compressor drives its own communication).
	TargetBytes int
}

// Enabled reports whether the config fuses anything at all.
func (fc FusionConfig) Enabled() bool { return fc.TargetBytes > 0 }

// validate rejects nonsensical configurations before they can desync the
// collective schedule.
func (fc FusionConfig) validate() error {
	if fc.TargetBytes < 0 {
		return fmt.Errorf("grace: fusion TargetBytes %d is negative", fc.TargetBytes)
	}
	return nil
}

// bucket is one fusion unit: the contiguous tensor index range [Lo, Hi).
// Contiguity is what lets the engine's comm driver keep issuing collectives
// in ascending tensor order — a bucket launches when its last tensor's
// payload arrives.
type Bucket struct {
	Lo, Hi int
}

// size is the tensor count of the bucket.
func (b Bucket) size() int { return b.Hi - b.Lo }

// planBuckets derives the step's bucket layout from the tensor set and the
// fusion policy. The plan is a pure function of (infos, fc, strategy):
// deterministic and identical on every rank. Estimated volume is the
// uncompressed tensor width; compressed payloads are smaller, so buckets
// under-fill rather than overshoot, which is the safe direction for a fill
// target. A tensor larger than TargetBytes on its own still gets a bucket
// (of one).
func planBuckets(infos []TensorInfo, fc FusionConfig, strategy Strategy) []Bucket {
	m := len(infos)
	if m == 0 {
		return nil
	}
	if !fc.Enabled() || strategy == Custom {
		out := make([]Bucket, m)
		for i := range out {
			out[i] = Bucket{Lo: i, Hi: i + 1}
		}
		return out
	}
	var out []Bucket
	lo, volume := 0, 0
	for i, info := range infos {
		sz := info.Size() * 4
		if i > lo && volume+sz > fc.TargetBytes {
			out = append(out, Bucket{Lo: lo, Hi: i})
			lo, volume = i, 0
		}
		volume += sz
	}
	return append(out, Bucket{Lo: lo, Hi: m})
}
