package grace

import "sort"

// TensorQuality is one tensor's compression-quality record, accumulated by
// the Engine over the lifetime of the current tensor set (reset when shapes
// change) and rendered by QualityReport. It answers "how hard is this tensor
// actually being compressed, and at what cost": the achieved wire density in
// bits per parameter against the dense 32-bit baseline, the error-feedback
// residual the compression has accumulated, and the decode fault/fallback
// history.
type TensorQuality struct {
	// Tensor and Name identify the tensor (input order / TensorInfo.Name).
	Tensor int    `json:"tensor"`
	Name   string `json:"name"`
	// Method labels the active compression method: the autotuner's current
	// candidate in tuning mode, the engine's fixed method otherwise.
	Method string `json:"method"`
	// Params is the tensor's element count.
	Params int `json:"params"`
	// Steps is how many completed steps the tensor has been exchanged in.
	Steps int64 `json:"steps"`
	// SentBytes is the cumulative compressed payload volume this worker sent
	// for the tensor (including any uncompressed fallback re-exchanges).
	SentBytes int64 `json:"sent_bytes"`
	// BitsPerParam is the achieved average wire density:
	// SentBytes·8 / (Params·Steps). Dense float32 exchange is 32; the ratio
	// 32/BitsPerParam is the achieved compression factor.
	BitsPerParam float64 `json:"bits_per_param"`
	// ResidualL2 is the current L2 norm of the tensor's error-feedback
	// residual (Eq. 4); 0 when the engine runs without EF memory. A
	// monotonically growing trajectory across reports flags a method whose
	// bias the optimizer is not absorbing.
	ResidualL2 float64 `json:"residual_l2"`
	// Faults counts payloads of this tensor that failed decode on this
	// worker; Fallbacks counts the union recovery re-exchanges the group ran
	// for it (rank-identical, ≥ the local fault count in aggregate).
	Faults    int64 `json:"faults"`
	Fallbacks int64 `json:"fallbacks"`
	// EFDrops counts error-feedback residual sets declared lost for this
	// tensor by elastic shrinks: one per evicted rank per shrink while the
	// engine runs with EF memory. The evicted rank's residual was rank-local
	// state with no surviving copy; the drop is recorded rather than hidden.
	EFDrops int64 `json:"ef_drops,omitempty"`
}

// QualityReport renders the per-tensor compression-quality accumulators.
// Rows come back in input-tensor order. The report allocates; it is meant
// for cadence/END-of-run consumption (artifacts, gracestat), not the per-step
// hot path. Must not be called concurrently with Step.
func (e *Engine) QualityReport() []TensorQuality {
	if len(e.slots) == 0 {
		return nil
	}
	rows := make([]TensorQuality, len(e.slots))
	for i := range e.slots {
		q := e.slots[i].q
		q.Method = e.methodLabel(i)
		if denom := float64(q.Params) * float64(q.Steps); denom > 0 {
			q.BitsPerParam = float64(q.SentBytes) * 8 / denom
		}
		if e.mem != nil {
			q.ResidualL2 = e.mem.Norm2(q.Name)
		}
		rows[i] = q
	}
	return rows
}

// methodLabel names the compression method: the fixed compressor's name, or
// in autotuning mode tensor i's current candidate label — and for i < 0 the
// policy signature, which stands in for the engine's one method (Method).
func (e *Engine) methodLabel(i int) string {
	switch {
	case e.tuner == nil:
		return e.lanes[0].comps[0].Name()
	case i < 0:
		return e.tuner.Sig()
	case i < len(e.rep.PolicyByTensor) && e.rep.PolicyByTensor[i] != "":
		return e.rep.PolicyByTensor[i]
	}
	return "?"
}

// SortQualityByDensity orders rows densest-wire-first (highest achieved
// bits/param first), the "who is compressing worst" view gracestat leads
// with. Ties break by tensor index for stable output.
func SortQualityByDensity(rows []TensorQuality) {
	sort.SliceStable(rows, func(a, b int) bool {
		return rows[a].BitsPerParam > rows[b].BitsPerParam
	})
}
