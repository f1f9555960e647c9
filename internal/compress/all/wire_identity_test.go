package all_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/grace"
)

// wireOp is one collective call as a rank issued it: the operation and the
// bytes it put in (an allreduce's floats little-endian, before the sum).
type wireOp struct {
	op      comm.Op
	payload []byte
}

// recordingColl logs every collective its rank issues. It embeds the bare
// interface, so whatever drives it sees exactly these four operations.
type recordingColl struct {
	comm.Collective
	log []wireOp
}

func (c *recordingColl) AllreduceF32(x []float32) error {
	c.log = append(c.log, wireOp{comm.OpAllreduce, f32LE(x)})
	return c.Collective.AllreduceF32(x)
}

func (c *recordingColl) AllgatherBytes(b []byte) ([][]byte, error) {
	c.log = append(c.log, wireOp{comm.OpAllgather, append([]byte{}, b...)})
	return c.Collective.AllgatherBytes(b)
}

func (c *recordingColl) BroadcastBytes(b []byte, root int) ([]byte, error) {
	c.log = append(c.log, wireOp{comm.OpBroadcast, append([]byte{}, b...)})
	return c.Collective.BroadcastBytes(b, root)
}

const wireWorkers, wireSteps = 2, 3

// wireGrads is the gradient stream of the wire-identity runs, deterministic in
// (rank, step, tensor).
func wireGrads(rank, step int, infos []grace.TensorInfo) [][]float32 {
	grads := make([][]float32, len(infos))
	for ti, info := range infos {
		grads[ti] = randomGrad(uint64(rank)<<16|uint64(step)<<8|uint64(ti)+1, info.Size())
	}
	return grads
}

// recordWire runs body once per rank, in lockstep over a recording hub, and
// returns every rank's collective log.
func recordWire(t *testing.T, body func(rank int, coll comm.Collective) error) [][]wireOp {
	t.Helper()
	hub := comm.NewHub(wireWorkers)
	colls := make([]*recordingColl, wireWorkers)
	errs := make([]error, wireWorkers)
	var wg sync.WaitGroup
	for rank := range colls {
		colls[rank] = &recordingColl{Collective: hub.Worker(rank)}
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if errs[rank] = body(rank, colls[rank]); errs[rank] != nil {
				hub.Abort(errs[rank])
			}
		}(rank)
	}
	wg.Wait()
	logs := make([][]wireOp, wireWorkers)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		logs[rank] = colls[rank].log
	}
	return logs
}

// wireCodec builds rank's compressor; every run seeds its instances alike, so
// a randomized codec draws the same stream in each.
func wireCodec(method string, rank int) (grace.Compressor, error) {
	opts := goldenOptions(method)
	opts.Seed = 900 + uint64(rank)
	return grace.New(method, opts)
}

func wireMemory(ef bool) *grace.Memory {
	if !ef {
		return nil
	}
	return grace.NewMemory(1, 1)
}

// pipelineWire is the reference: the sequential per-tensor Pipeline loop.
func pipelineWire(t *testing.T, method string, ef bool, infos []grace.TensorInfo) [][]wireOp {
	return recordWire(t, func(rank int, coll comm.Collective) error {
		c, err := wireCodec(method, rank)
		if err != nil {
			return err
		}
		p := &grace.Pipeline{Comp: c, Mem: wireMemory(ef), Coll: coll}
		for step := 0; step < wireSteps; step++ {
			for ti, g := range wireGrads(rank, step, infos) {
				if _, _, err := p.Exchange(g, infos[ti]); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// engineWire runs the Engine on the same stream and also returns the bucket
// plan (identical on every rank and step).
func engineWire(t *testing.T, method string, ef bool, lanes, fusion int, infos []grace.TensorInfo) ([][]wireOp, []grace.Bucket) {
	var plan []grace.Bucket
	logs := recordWire(t, func(rank int, coll comm.Collective) error {
		eng, err := grace.NewEngine(
			grace.WithCollective(coll),
			grace.WithCompressorFactory(func() (grace.Compressor, error) { return wireCodec(method, rank) }),
			grace.WithEngineMemory(wireMemory(ef)),
			grace.WithParallelism(lanes),
			grace.WithFusionBytes(fusion),
		)
		if err != nil {
			return err
		}
		for step := 0; step < wireSteps; step++ {
			_, rep, err := eng.Step(wireGrads(rank, step, infos), infos)
			if err != nil {
				return err
			}
			if rank == 0 && step == 0 {
				plan = append([]grace.Bucket(nil), rep.Buckets...)
			}
		}
		return nil
	})
	return logs, plan
}

func sameWire(got, want []wireOp) error {
	if len(got) != len(want) {
		return fmt.Errorf("issued %d collectives, the reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i].op != want[i].op || !bytes.Equal(got[i].payload, want[i].payload) {
			return fmt.Errorf("collective %d is %s of %d bytes, the reference's is %s of %d bytes (or differs in content)",
				i, got[i].op, len(got[i].payload), want[i].op, len(want[i].payload))
		}
	}
	return nil
}

// TestWireIdentityAllMethods pins what the Engine puts on the wire without
// reference to any earlier build. For every registered method, with and
// without error feedback:
//
//   - the unfused Engine (one lane, so a randomized codec's instance sees the
//     tensors in the Pipeline's order) issues the sequential Pipeline's
//     collectives exactly — same operations, same order, same payload bytes:
//     a bucket of one is the per-tensor exchange;
//   - with three lanes the same holds for the deterministic methods, whose
//     payloads do not depend on which instance compressed which tensor;
//   - the fused Engine issues one collective per bucket, and each frame splits
//     (comm.SplitFused) into exactly the Pipeline's payloads for the bucket's
//     tensors; an allreduce bucket's buffer is their concatenation. Custom-
//     strategy methods never fuse, so their log stays the Pipeline's.
func TestWireIdentityAllMethods(t *testing.T) {
	infos := lockstepInfos()
	m := len(infos)
	for _, method := range wantMethods {
		meta, err := grace.Lookup(method)
		if err != nil {
			t.Fatal(err)
		}
		probe, err := wireCodec(method, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ef := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ef=%v", method, ef), func(t *testing.T) {
				want := pipelineWire(t, method, ef, infos)

				laneCounts := []int{1}
				if meta.Nature == "deterministic" {
					laneCounts = append(laneCounts, 3)
				}
				for _, lanes := range laneCounts {
					got, plan := engineWire(t, method, ef, lanes, 0, infos)
					if len(plan) != m {
						t.Fatalf("unfused plan has %d buckets for %d tensors", len(plan), m)
					}
					for rank := range want {
						if err := sameWire(got[rank], want[rank]); err != nil {
							t.Fatalf("unfused engine, %d lanes, rank %d: %v", lanes, rank, err)
						}
					}
				}

				// 400 bytes packs these shapes into five buckets of one to three.
				got, plan := engineWire(t, method, ef, 1, 400, infos)
				if probe.Strategy() == grace.Custom {
					for rank := range want {
						if err := sameWire(got[rank], want[rank]); err != nil {
							t.Fatalf("fused engine (custom strategy), rank %d: %v", rank, err)
						}
					}
					return
				}
				if len(plan) >= m || len(plan) < 3 {
					t.Fatalf("fused plan %v: want several buckets, fewer than %d", plan, m)
				}
				for rank := range want {
					if len(got[rank]) != wireSteps*len(plan) {
						t.Fatalf("fused engine rank %d issued %d collectives, want %d steps x %d buckets",
							rank, len(got[rank]), wireSteps, len(plan))
					}
					for step := 0; step < wireSteps; step++ {
						for bi, b := range plan {
							frame := got[rank][step*len(plan)+bi]
							ref := want[rank][step*m+b.Lo : step*m+b.Hi]
							parts := make([][]byte, len(ref))
							if frame.op == comm.OpAllgather {
								if err := comm.SplitFused(frame.payload, parts); err != nil {
									t.Fatalf("rank %d step %d bucket %v: %v", rank, step, b, err)
								}
							} else {
								// The allreduce buffer is the payloads end to end.
								rest := frame.payload
								for k := range ref {
									n := min(len(ref[k].payload), len(rest))
									parts[k], rest = rest[:n], rest[n:]
								}
								if len(rest) != 0 {
									t.Fatalf("rank %d step %d bucket %v: %d bytes beyond the reference payloads", rank, step, b, len(rest))
								}
							}
							for k := range ref {
								if frame.op != ref[k].op || !bytes.Equal(parts[k], ref[k].payload) {
									t.Fatalf("rank %d step %d bucket %v part %d: fused %s carries %d bytes, the reference %s %d bytes (or differs in content)",
										rank, step, b, k, frame.op, len(parts[k]), ref[k].op, len(ref[k].payload))
								}
							}
						}
					}
				}
			})
		}
	}
}
