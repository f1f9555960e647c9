package harness

import (
	"time"

	"repro/internal/fxrand"
	"repro/internal/grace"
)

// ablationTensor builds the gradient used by the codec ablations: 1M
// elements with the heavy-tailed shape of real gradients (mostly small
// values with occasional large ones), which is what entropy coding exploits.
func ablationTensor(seed uint64) ([]float32, grace.TensorInfo) {
	const d = 1 << 20
	info := grace.NewTensorInfo("abl", []int{1024, d / 1024})
	r := fxrand.New(seed)
	g := make([]float32, d)
	for i := range g {
		v := r.NormFloat32() * 0.02
		if r.Bernoulli(0.02) {
			v = r.NormFloat32() * 0.5
		}
		g[i] = v
	}
	return g, info
}

// runHuffAblation quantifies the Huffman lossless-stage extension ([81] in
// the paper's related work): wire volume and codec latency with and without
// entropy coding, for TernGrad and QSGD.
func runHuffAblation(sc SweepConfig) ([]*Table, error) {
	g, info := ablationTensor(7)
	t := &Table{
		Title:  "Ablation: Huffman entropy-coding stage (4MB heavy-tailed gradient)",
		Header: []string{"method", "wire bytes", "bits/elem", "codec (ms)"},
	}
	cases := []struct {
		label string
		name  string
		opts  grace.Options
	}{
		{"TernGrad", "terngrad", grace.Options{Seed: 1}},
		{"TernGrad+Huffman", "huffterngrad", grace.Options{Seed: 1}},
		{"QSGD(8)", "qsgd", grace.Options{Levels: 8, Seed: 1}},
		{"QSGD(8)+Huffman", "huffqsgd", grace.Options{Levels: 8, Seed: 1}},
	}
	for _, cse := range cases {
		c, err := grace.New(cse.name, cse.opts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		p, err := c.Compress(g, info)
		if err != nil {
			return nil, err
		}
		if _, err := c.Decompress(p, info); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		t.AddRow(cse.label, p.WireBytes(),
			float64(p.WireBytes()*8)/float64(len(g)),
			float64(elapsed)/1e6)
	}
	return []*Table{t}, nil
}

// runPSAblation compares the peer (ring) collectives against the
// parameter-server topology the framework also supports (§IV-A): the star's
// central link serializes all payloads, so the dense baseline suffers most
// while aggressive compression narrows the gap.
func runPSAblation(sc SweepConfig) ([]*Table, error) {
	b, err := BenchmarkByName("mlpwide")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: ring allreduce vs parameter server (VGG-16 stand-in)",
		Header: []string{"method", "ring (samples/s)", "param server (samples/s)", "ring/ps"},
	}
	specs := []MethodSpec{
		{Label: "Baseline", Name: "none"},
		{Label: "Topk(0.01)", Name: "topk", Opts: grace.Options{Ratio: 0.01}, EF: true},
		{Label: "TernGrad", Name: "terngrad"},
	}
	for _, spec := range specs {
		ring, err := RunOne(b, spec, sc)
		if err != nil {
			return nil, err
		}
		star := b.TrainConfig(spec, sc)
		star.ParamServer = true
		ps, err := grace.Run(star)
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if ps.Throughput > 0 {
			ratio = ring.Throughput / ps.Throughput
		}
		t.AddRow(spec.Label, ring.Throughput, ps.Throughput, ratio)
	}
	return []*Table{t}, nil
}

// runLocalSGD evaluates Qsparse-local-SGD [20] (Table I's remaining hybrid
// row): quantized or sparsified synchronization every H local steps. Volume
// per iteration drops roughly as 1/H on top of the compressor's own ratio;
// quality degrades gracefully with H.
func runLocalSGD(sc SweepConfig) ([]*Table, error) {
	b, err := BenchmarkByName("mlpwide")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Qsparse-local-SGD: compressed sync every H local steps (VGG-16 stand-in)",
		Header: []string{"method", "H", b.Metric, "rel throughput", "bytes/iter"},
	}
	methods := []MethodSpec{
		{Label: "Baseline", Name: "none"},
		{Label: "QSGD(64)", Name: "qsgd", Opts: grace.Options{Levels: 64}},
		{Label: "Topk(0.01)", Name: "topk", Opts: grace.Options{Ratio: 0.01}, EF: true},
	}
	var baseTP float64
	for _, m := range methods {
		for _, h := range []int{1, 4} {
			cfg := b.TrainConfig(m, sc)
			cfg.SyncEvery = h
			rep, err := grace.Run(cfg)
			if err != nil {
				return nil, err
			}
			if m.Name == "none" && h == 1 {
				baseTP = rep.Throughput
			}
			rel := 0.0
			if baseTP > 0 {
				rel = rep.Throughput / baseTP
			}
			t.AddRow(m.Label, h, rep.BestQuality, rel, rep.BytesPerIter)
		}
	}
	return []*Table{t}, nil
}

// runPackingAblation quantifies the bit-packing design choice the paper
// calls out (§V-C footnote: its own Python implementation omits packing, so
// quantized volumes are inflated). For each quantizer we report the packed
// wire size this implementation sends against the size the paper's
// representation would send (one float32 per element plus scales).
func runPackingAblation(sc SweepConfig) ([]*Table, error) {
	g, info := ablationTensor(9)
	d := len(g)
	t := &Table{
		Title:  "Ablation: bit-packing vs the paper's unpacked representation (4MB gradient)",
		Header: []string{"method", "packed bytes", "bits/elem", "unpacked bytes", "packing gain"},
	}
	cases := []struct {
		label    string
		name     string
		opts     grace.Options
		unpacked int // bytes the paper's unpacked form would send
	}{
		{"SignSGD", "signsgd", grace.Options{}, 4 * d},
		{"TernGrad", "terngrad", grace.Options{Seed: 1}, 4*d + 4},
		{"QSGD(64)", "qsgd", grace.Options{Levels: 64, Seed: 1}, 4*d + 4},
		{"8-bit", "eightbit", grace.Options{}, d + 4}, // paper stores 1 byte per 256-level value
		{"3LC", "threelc", grace.Options{}, 4*d + 4},
	}
	for _, cse := range cases {
		c, err := grace.New(cse.name, cse.opts)
		if err != nil {
			return nil, err
		}
		p, err := c.Compress(g, info)
		if err != nil {
			return nil, err
		}
		t.AddRow(cse.label, p.WireBytes(),
			float64(p.WireBytes()*8)/float64(d),
			cse.unpacked,
			float64(cse.unpacked)/float64(p.WireBytes()))
	}
	return []*Table{t}, nil
}
