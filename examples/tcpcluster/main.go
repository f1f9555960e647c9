// Tcpcluster demonstrates GRACE over real TCP collectives: four workers on
// localhost form a ring (the same topology Horovod's allreduce uses) and
// exchange a whole model's worth of Top-k-compressed per-layer gradients
// through the grace.Engine, which overlaps compression compute with the
// wire exchange of earlier layers. Every worker verifies it agrees on all
// aggregates. This exercises the actual network substrate rather than the
// in-process hub the experiments use.
package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/fxrand"
	"repro/internal/grace"
)

const (
	workers = 4
	rounds  = 5
)

func main() {
	// A realistic per-layer gradient size distribution: a few big tensors,
	// many small ones.
	shapes := [][]int{
		{64, 128}, {128}, {128, 128}, {128}, {128, 64}, {64}, {64, 10}, {10},
	}
	infos := make([]grace.TensorInfo, len(shapes))
	for i, s := range shapes {
		infos[i] = grace.NewTensorInfo(fmt.Sprintf("layer%d", i), s)
	}

	// Bind one localhost listener per worker; each ring takes its own over.
	lns := make([]net.Listener, workers)
	addrs := make([]string, workers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	fmt.Printf("forming a %d-worker TCP ring: %v\n", workers, addrs)

	results := make([][][]float32, workers)
	var wg sync.WaitGroup
	for rank := 0; rank < workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ring, err := comm.DialTCPRingConfig(comm.RingConfig{Rank: rank, Addrs: addrs, Listener: lns[rank], SetupTimeout: 5 * time.Second})
			if err != nil {
				panic(fmt.Sprintf("rank %d: %v", rank, err))
			}
			defer ring.Close()

			meter := comm.NewMeter(ring)
			// Functional options are the construction surface; WithFusionBytes
			// packs the many small layers into shared collective rounds.
			eng, err := grace.NewEngine(
				grace.WithCollective(meter),
				grace.WithCompressorFactory(func() (grace.Compressor, error) {
					return grace.New("topk", grace.WithRatio(0.05))
				}),
				grace.WithEngineMemory(grace.NewMemory(1, 1)),
				grace.WithParallelism(2),
				grace.WithFusionBytes(64<<10),
			)
			if err != nil {
				panic(err)
			}

			rng := fxrand.New(uint64(rank) + 1)
			grads := make([][]float32, len(infos))
			for i, info := range infos {
				grads[i] = make([]float32, info.Size())
			}
			var lastWall, lastCodec time.Duration
			for round := 0; round < rounds; round++ {
				for _, g := range grads {
					for i := range g {
						g[i] = rng.NormFloat32() * 0.1
					}
				}
				aggs, rep, err := eng.Step(grads, infos)
				if err != nil {
					panic(fmt.Sprintf("rank %d round %d: %v", rank, round, err))
				}
				if round == rounds-1 {
					// The engine owns its buffers; keep a copy of the last
					// round's aggregates for the agreement check.
					results[rank] = make([][]float32, len(aggs))
					for i, a := range aggs {
						results[rank][i] = append([]float32(nil), a...)
					}
					lastWall, lastCodec = rep.WallTime, rep.CodecTime
				}
			}
			if rank == 0 {
				var dense int
				for _, info := range infos {
					dense += 4 * info.Size()
				}
				fmt.Printf("rank 0 sent %d bytes over %d collective ops (vs %d dense per round × %d rounds)\n",
					meter.BytesSent(), meter.Ops(), dense, rounds)
				fmt.Printf("last step: wall %v, codec (summed over %d lanes) %v\n",
					lastWall, eng.Lanes(), lastCodec)
			}
		}(rank)
	}
	wg.Wait()

	for rank := 1; rank < workers; rank++ {
		for ti := range infos {
			for i := range results[0][ti] {
				if results[rank][ti][i] != results[0][ti][i] {
					panic(fmt.Sprintf("worker %d disagrees with worker 0 on tensor %d element %d", rank, ti, i))
				}
			}
		}
	}
	fmt.Printf("all %d workers agree on %d aggregated tensors after %d rounds over real TCP\n",
		workers, len(infos), rounds)
}
