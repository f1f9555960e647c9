package main

// metricDef names one reported metric. BENCHMARK.json at the repo root lists
// the same names, units, directions and bounds; TestSpecMatchesBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics of the untraced run, per workload.
var endToEnd = []metricDef{
	{"steps_per_s", "1/s", "higher", 0.25},
	{"step_p50_ms", "ms", "lower", 0.25},
	{"step_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_step", "ms", "lower", 0.25},
	{"allocs_per_step", "count", "lower", 0.02},
	{"alloc_kb_per_step", "KiB", "lower", 0.02},
	{"wire_bytes_per_step", "bytes", "lower", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of the traced run, per step on rank 0 unless the
// README says otherwise. They carry no bound.
var perLayer = []metricDef{
	{Name: "comm.ops_per_step", Unit: "count", Better: "lower"},
	{Name: "comm.allreduce_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "comm.allgather_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "comm.us_per_op", Unit: "us", Better: "lower"},
	{Name: "comm.allreduce_gbps", Unit: "Gbit/s", Better: "higher"},
	{Name: "comm.entry_skew_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "comm.sent_bytes_per_step", Unit: "bytes", Better: "lower"},
	{Name: "comm.recv_bytes_per_step", Unit: "bytes", Better: "lower"},
	{Name: "comm.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.failed_ops", Unit: "count", Better: "lower"},
	{Name: "compress.compress_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "compress.decompress_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "compress.calls_per_step", Unit: "count", Better: "lower"},
	{Name: "compress.mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.ratio", Unit: "x", Better: "higher"},
	{Name: "encode.indices_enc_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "encode.indices_dec_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "encode.packbits_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "encode.f16_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "grace.step_ms", Unit: "ms", Better: "lower"},
	{Name: "grace.self_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "grace.phase_compensate_ms", Unit: "ms", Better: "lower"},
	{Name: "grace.phase_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "grace.phase_aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "grace.phase_fuse_ms", Unit: "ms", Better: "lower"},
	{Name: "grace.phase_wire_send_ms", Unit: "ms", Better: "lower"},
	{Name: "grace.phase_wire_recv_ms", Unit: "ms", Better: "lower"},
	{Name: "grace.rounds_per_step", Unit: "count", Better: "lower"},
	{Name: "grace.fused_buckets_per_step", Unit: "count", Better: "higher"},
	{Name: "nn.forward_backward_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "data.batch_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "optim.step_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "simnet.allreduce_measured_over_modeled", Unit: "x", Better: "lower"},
	{Name: "simnet.allgather_measured_over_modeled", Unit: "x", Better: "lower"},
	{Name: "proc.gc_cycles_per_kstep", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms_per_kstep", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "trace.step_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.residual_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// workload is one set of inputs and the entry points that consume them.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	train  bool    // grace.RunWorker on mlpwide; otherwise Engine.Step on generated gradients
	hub    bool    // comm.NewHub instead of a loopback TCPRing
	many   bool    // the 49 small tensors instead of mlpwide's 6
	method string  // registered compressor name
	ratio  float64 // top-k ratio
	ef     bool    // framework error-feedback memory
	fusion int     // WithFusionBytes target, 0 = unfused
}

var workloads = []workload{
	{Name: "train_tcp_topk",
		Why:   "whole RunWorker training step (data, fwd/bwd, top-k 1% + EF, allgather, decode, optimizer) on a loopback TCP ring: the user-visible number, codec- and compute-bound",
		train: true, method: "topk", ratio: 0.01, ef: true},
	{Name: "exchange_tcp_dense",
		Why:    "Engine.Step with no compression on mlpwide's 2 MB of fp32 over the TCP ring: the honest baseline, ring allreduce is nearly all of the step",
		method: "none"},
	{Name: "exchange_tcp_manysmall",
		Why:  "49 small tensors, top-k 5% + EF, one allgather round each over the TCP ring: per-round frame, syscall and scheduling cost is the step",
		many: true, method: "topk", ratio: 0.05, ef: true},
	{Name: "exchange_tcp_manysmall_fused",
		Why:  "same inputs with 16 KiB fusion (6 rounds per step): the same layers used through pack/split, so a per-round win that taxes the fused path shows as one row up, one down",
		many: true, method: "topk", ratio: 0.05, ef: true, fusion: 16 << 10},
	{Name: "exchange_hub_dense",
		Why:    "the dense step over the in-process hub every test and harness experiment uses: a TCP-only change must leave it flat, the hub float path shows only here",
		method: "none", hub: true},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
