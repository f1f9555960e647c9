package grace_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/grace"
)

// runEngineResumable drives `workers` engines over the shared hub for steps
// [from, to), optionally seeding each engine with a codec-state snapshot, and
// returns the final aggregated outputs plus each rank's captured state at the
// end.
func runEngineResumable(t *testing.T, workers, lanes, from, to int, infos []grace.TensorInfo,
	method string, opts []grace.Option, load []grace.EngineCodecState) ([][][]float32, []grace.EngineCodecState) {
	t.Helper()
	hub := comm.NewHub(workers)
	final := make([][][]float32, workers)
	states := make([]grace.EngineCodecState, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for rank := 0; rank < workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			eng, err := grace.NewEngine(
				grace.WithCollective(hub.Worker(rank)),
				grace.WithCompressorFactory(func() (grace.Compressor, error) { return grace.New(method, opts...) }),
				grace.WithParallelism(lanes),
			)
			if err != nil {
				errs[rank] = err
				return
			}
			if load != nil {
				if err := eng.LoadCodecState(load[rank]); err != nil {
					errs[rank] = err
					return
				}
			}
			for step := from; step < to; step++ {
				grads := engineTestGrads(rank, step, infos)
				aggs, _, err := eng.Step(grads, infos)
				if err != nil {
					errs[rank] = err
					return
				}
				out := make([][]float32, len(aggs))
				for i, a := range aggs {
					out[i] = append([]float32(nil), a...)
				}
				final[rank] = out
			}
			states[rank] = eng.CodecState()
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return final, states
}

// TestEngineCodecStateResume: a run snapshotted mid-stream and resumed in
// fresh engines must produce bitwise-identical aggregated gradients to an
// uninterrupted run, for both kinds of codec state — DGC's per-tensor
// momentum/accumulator maps and QSGD's per-lane rounding RNG streams.
func TestEngineCodecStateResume(t *testing.T) {
	cases := []struct {
		method string
		opts   []grace.Option
	}{
		{"dgc", []grace.Option{grace.WithRatio(0.25)}},
		{"qsgd", []grace.Option{grace.WithLevels(8), grace.WithSeed(42)}},
	}
	const workers, lanes, before, after = 2, 2, 3, 4
	infos := engineTestInfos(5)
	for _, tc := range cases {
		t.Run(tc.method, func(t *testing.T) {
			ref, _ := runEngineResumable(t, workers, lanes, 0, before+after, infos, tc.method, tc.opts, nil)
			_, snap := runEngineResumable(t, workers, lanes, 0, before, infos, tc.method, tc.opts, nil)
			got, _ := runEngineResumable(t, workers, lanes, before, before+after, infos, tc.method, tc.opts, snap)
			for rank := range ref {
				for i := range ref[rank] {
					for j := range ref[rank][i] {
						r, g := ref[rank][i][j], got[rank][i][j]
						if math.Float32bits(r) != math.Float32bits(g) {
							t.Fatalf("rank %d tensor %d elem %d: resumed %v, uninterrupted %v",
								rank, i, j, g, r)
						}
					}
				}
			}
		})
	}
}

// TestEngineCodecStateFresh: a snapshot restored without any prior Step must
// also work — the cold-start path a restarted worker takes.
func TestEngineCodecStateFresh(t *testing.T) {
	const workers, lanes, steps = 2, 2, 3
	infos := engineTestInfos(4)
	opts := []grace.Option{grace.WithRatio(0.25)}
	_, snap := runEngineResumable(t, workers, lanes, 0, steps, infos, "dgc", opts, nil)
	for rank := range snap {
		if len(snap[rank].Tensors["u"]) != len(infos) || len(snap[rank].Tensors["v"]) != len(infos) {
			t.Fatalf("rank %d snapshot covers %d/%d tensors (u/v), want %d each",
				rank, len(snap[rank].Tensors["u"]), len(snap[rank].Tensors["v"]), len(infos))
		}
	}
}

// TestEngineCodecStateStateless: stateless methods capture an empty snapshot
// and accept it back silently.
func TestEngineCodecStateStateless(t *testing.T) {
	hub := comm.NewHub(1)
	eng, err := grace.NewEngine(grace.WithCollective(hub.Worker(0)), grace.WithCompressorFactory(func() (grace.Compressor, error) { return grace.New("topk", grace.WithRatio(0.1)) }))
	if err != nil {
		t.Fatal(err)
	}
	st := eng.CodecState()
	if st.Method != "topk" || st.Tensors != nil || st.LaneRNGs != nil {
		t.Fatalf("stateless snapshot not empty: %+v", st)
	}
	if err := eng.LoadCodecState(st); err != nil {
		t.Fatalf("loading empty snapshot: %v", err)
	}
}

// TestEngineCodecStateMismatches covers the typed rejection paths: wrong
// method, wrong lane count for positional RNG streams, and stateful payload
// into a stateless engine.
func TestEngineCodecStateMismatches(t *testing.T) {
	hub := comm.NewHub(1)
	mkEngine := func(method string, lanes int, opts ...grace.Option) *grace.Engine {
		eng, err := grace.NewEngine(
			grace.WithCollective(hub.Worker(0)),
			grace.WithCompressorFactory(func() (grace.Compressor, error) { return grace.New(method, opts...) }),
			grace.WithParallelism(lanes),
		)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	t.Run("wrong-method", func(t *testing.T) {
		st := mkEngine("dgc", 1, grace.WithRatio(0.25)).CodecState()
		err := mkEngine("topk", 1, grace.WithRatio(0.25)).LoadCodecState(st)
		if err == nil || !strings.Contains(err.Error(), "cannot load") {
			t.Fatalf("err = %v, want method mismatch", err)
		}
	})
	t.Run("wrong-lane-count", func(t *testing.T) {
		st := mkEngine("qsgd", 2, grace.WithLevels(8)).CodecState()
		if len(st.LaneRNGs) != 2 {
			t.Fatalf("snapshot has %d lane RNGs, want 2", len(st.LaneRNGs))
		}
		err := mkEngine("qsgd", 1, grace.WithLevels(8)).LoadCodecState(st)
		if err == nil || !strings.Contains(err.Error(), "lane RNG streams") {
			t.Fatalf("err = %v, want lane-count mismatch", err)
		}
	})
	t.Run("state-into-stateless", func(t *testing.T) {
		st := mkEngine("qsgd", 1, grace.WithLevels(8)).CodecState()
		st.Method = "" // defeat the name check to reach the capability check
		err := mkEngine("topk", 1, grace.WithRatio(0.25)).LoadCodecState(st)
		if err == nil || !strings.Contains(err.Error(), "stateless") {
			t.Fatalf("err = %v, want stateless rejection", err)
		}
	})
}

// TestMemoryStateRoundTrip: the framework EF memory's snapshot is a deep
// copy and restores bitwise.
func TestMemoryStateRoundTrip(t *testing.T) {
	m := grace.NewMemory(1, 1)
	m.Update("a", []float32{1, 2, 3}, []float32{0.5, 0.5, 0.5})
	m.Update("b", []float32{4}, []float32{1})
	st := m.State()

	// Deep copy: mutating the live memory must not leak into the snapshot.
	m.Update("a", []float32{9, 9, 9}, []float32{0, 0, 0})
	if st["a"][0] != 0.5 {
		t.Fatalf("snapshot aliased live residual: %v", st["a"])
	}

	m2 := grace.NewMemory(1, 1)
	m2.LoadState(st)
	got := m2.Compensate("a", []float32{0, 0, 0})
	want := []float32{0.5, 1.5, 2.5}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("restored residual[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// And LoadState deep-copies its input too.
	st["b"][0] = -1
	if m2.Norm2("b") == 0 {
		t.Fatal("restored memory lost tensor b")
	}
	if got := m2.Compensate("b", []float32{0}); got[0] == -1 {
		t.Fatal("LoadState aliased the input map")
	}
}
