package grace

import "repro/internal/comm"

// EngineOption configures NewEngine. Options are applied in order onto a
// zero EngineConfig, so later options win:
//
//	eng, err := grace.NewEngine(
//		grace.WithCollective(coll),
//		grace.WithCompressorFactory(newComp),
//		grace.WithFusion(grace.FusionConfig{TargetBytes: 1 << 20}),
//	)
type EngineOption interface {
	applyEngine(*EngineConfig)
}

// engineOptionFunc adapts a function to the EngineOption interface.
type engineOptionFunc func(*EngineConfig)

func (f engineOptionFunc) applyEngine(c *EngineConfig) { f(c) }

// WithCollective sets the worker's collective handle (required).
func WithCollective(coll comm.Collective) EngineOption {
	return engineOptionFunc(func(c *EngineConfig) { c.Coll = coll })
}

// WithCompressorFactory sets the per-lane compressor factory (see
// EngineConfig.New).
func WithCompressorFactory(f func() (Compressor, error)) EngineOption {
	return engineOptionFunc(func(c *EngineConfig) { c.New = f })
}

// WithEngineMemory attaches the framework error-feedback memory (Eq. 4).
func WithEngineMemory(m *Memory) EngineOption {
	return engineOptionFunc(func(c *EngineConfig) { c.Mem = m })
}

// WithParallelism bounds the codec lane count; 0 selects GOMAXPROCS.
func WithParallelism(p int) EngineOption {
	return engineOptionFunc(func(c *EngineConfig) { c.Parallelism = p })
}

// WithDecodeFallback enables graceful degradation of decode failures (see
// EngineConfig.DecodeFallback; must be set identically on every worker).
func WithDecodeFallback(on bool) EngineOption {
	return engineOptionFunc(func(c *EngineConfig) { c.DecodeFallback = on })
}

// WithFusion sets the tensor-fusion batching policy (see FusionConfig; must
// be set identically on every worker).
func WithFusion(fc FusionConfig) EngineOption {
	return engineOptionFunc(func(c *EngineConfig) { c.Fusion = fc })
}

// WithFusionBytes is WithFusion with just a bucket fill target — the common
// case, mirroring the CLIs' -fusion-bytes flag. 0 disables fusion.
func WithFusionBytes(target int) EngineOption {
	return engineOptionFunc(func(c *EngineConfig) { c.Fusion = FusionConfig{TargetBytes: target} })
}

// WithTuner puts the engine in autotuning mode under the given policy (see
// EngineConfig.Tuner; every worker must run an identically configured
// policy). The autotune package constructs policies: WithTuner(autotune.New(
// autotune.Config{...})).
func WithTuner(tn Tuner) EngineOption {
	return engineOptionFunc(func(c *EngineConfig) { c.Tuner = tn })
}
