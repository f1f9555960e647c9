// Command graceworker runs one rank of a genuinely multi-process distributed
// training job over a real TCP ring: launch one process per rank with the
// same -addrs list and distinct -rank values (on one machine or several).
//
//	graceworker -rank 0 -addrs 127.0.0.1:7000,127.0.0.1:7001 -bench ncf -method topk -ratio 0.01 -ef &
//	graceworker -rank 1 -addrs 127.0.0.1:7000,127.0.0.1:7001 -bench ncf -method topk -ratio 0.01 -ef
//
// Every process builds the same synthetic dataset and model from the shared
// seed, so replicas agree exactly as the in-process trainer's do. Each process
// binds its own -addrs entry for its life: a relaunch needs the old one gone.
//
// With -checkpoint-dir/-checkpoint-every each rank snapshots its full
// training state crash-consistently; after a crash, relaunching every rank
// with -resume rolls the whole group back to the newest checkpoint every rank
// can load and continues bitwise-identically. -heartbeat enables the ring's
// liveness layer so a dead peer fails collectives in a few intervals instead
// of a long stall timeout.
//
// With -rejoin (plus -heartbeat and -checkpoint-dir) a peer death no longer
// ends the run: the survivors reform the ring under the next group
// generation, roll back to the newest checkpoint step every rank can load,
// and continue in place. Respawn only the dead rank with the same flags plus
// -resume and it runs the same rollback round with them. A -retry-budget
// additionally absorbs transient collective failures with bounded,
// deterministically jittered retry before they escalate at all.
//
// With -elastic the group additionally survives PERMANENT rank loss: if the
// dead rank's respawn misses the -rejoin-deadline, the survivors vote to
// continue at N-1 (denominators, shards, and fusion plans re-derive from the
// new size; the lost rank's error-feedback residuals are declared lost and
// counted). Launching a fresh worker with -elastic-join later grows the group
// back to full size: it is absorbed at the members' next step boundary and
// adopts its training state from a donor snapshot.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/grace"
	"repro/internal/harness"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

func main() {
	var (
		rank        = flag.Int("rank", -1, "this process's rank")
		addrsFlag   = flag.String("addrs", "", "comma-separated listen addresses, one per rank")
		bench       = flag.String("bench", "cnnsmall", "benchmark name")
		method      = flag.String("method", "none", "compression method")
		ratio       = flag.Float64("ratio", 0, "sparsification ratio")
		levels      = flag.Int("levels", 0, "quantization levels")
		rank_       = flag.Int("lowrank", 0, "low-rank factorization rank")
		ef          = flag.Bool("ef", false, "enable framework error feedback")
		codecpar    = flag.Int("codecpar", 0, "codec lanes for this worker's Engine (0 = GOMAXPROCS)")
		fusion      = flag.Int("fusion-bytes", 0, "tensor-fusion bucket fill target in bytes; one collective round carries many tensors (0 = per-tensor rounds; all ranks must agree)")
		autotune    = flag.Bool("autotune", false, "run under the runtime compression autotuner instead of a fixed -method (all ranks must agree; mutually exclusive with -fusion-bytes)")
		netPreset   = flag.String("net", "tcp-10g", "modeled network preset for the virtual clock")
		scale       = flag.Float64("scale", 1.0, "epoch scale factor")
		seed        = flag.Uint64("seed", 42, "shared run seed")
		timeout     = flag.Duration("timeout", 30*time.Second, "ring setup timeout")
		optimeout   = flag.Duration("optimeout", comm.DefaultOpTimeout, "per-collective-op deadline, applied via the context layer (comm.WithTimeout); <=0 disables")
		maxframe    = flag.Int("maxframe", comm.DefaultMaxFrameBytes, "largest accepted wire frame in bytes")
		chaos       = flag.String("chaos", "", "fault-injection plan, e.g. 'drop:rank=1,op=allgather,from=10' (see comm.ParsePlan)")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "seed for probabilistic fault rules")
		heartbeat   = flag.Duration("heartbeat", 0, "liveness ping interval; >0 makes a dead neighbor fail collectives within 3 intervals (all ranks must agree)")
		rejoin      = flag.Bool("rejoin", false, "self-heal on peer death instead of exiting: survivors reform the ring at the next generation and roll back to the newest common checkpoint; needs -checkpoint-dir and -heartbeat (all ranks must agree)")
		elastic     = flag.Bool("elastic", false, "elastic membership: when a dead rank misses the -rejoin-deadline the survivors vote to continue at N-1 instead of waiting forever, and a later -elastic-join worker grows the group back; implies -rejoin and needs -checkpoint-every (all ranks must agree)")
		elasticJoin = flag.Bool("elastic-join", false, "present this process as a fresh joiner at a running elastic group's join point: it is absorbed at the members' next step boundary and adopts state from a donor snapshot (implies -elastic)")
		rejoinDl    = flag.Duration("rejoin-deadline", 10*time.Second, "with -elastic: how long survivors hold the door open for a dead rank's respawn before voting to continue without it")
		retryBudget = flag.Int("retry-budget", 0, "absorb transient collective failures (timeouts, resets, injected chaos) with bounded in-place retry, spending at most this many retries over the run (0 = off)")
		ckptDir     = flag.String("checkpoint-dir", "", "directory for crash-consistent per-rank checkpoints")
		ckptEvery   = flag.Int("checkpoint-every", 0, "checkpoint every N optimizer steps (0 = final only)")
		resume      = flag.Bool("resume", false, "before the first step, roll back with the group to the newest checkpoint step every rank can load (negotiated over the ring): every rank of a restarted group, or one respawned rank of a healing one; starts fresh when no rank has a checkpoint")
		xr          = flag.Bool("xrank", false, "enable the cross-rank observability plane: per-op event recording, periodic trace aggregation over the ring, fault flight recorder (all ranks must agree)")
		xrEvery     = flag.Int("xrank-every", 25, "cross-rank trace aggregation cadence in optimizer steps (with -xrank; adds one small allgather per tick, so all ranks must agree)")
		xrDir       = flag.String("xrank-dir", "", "directory for flight-recorder dumps and (rank 0) the merged XRANK_* artifacts (with -xrank)")
		telAddr     = flag.String("telemetry-addr", "", "serve live /metrics, /debug/vars and /debug/pprof on this address; also enables span recording")
		tracePath   = flag.String("trace", "", "write a Chrome trace_event file for this rank; also enables span recording")
		telLinger   = flag.Duration("telemetry-linger", 0, "keep the telemetry server up this long after the run, for a final scrape")
	)
	flag.Parse()

	finishTel, err := telemetry.Default.StartExporters("graceworker", *telAddr, *tracePath, *telLinger)
	if err != nil {
		fatal(err)
	}

	addrs := strings.Split(*addrsFlag, ",")
	if *addrsFlag == "" || len(addrs) < 2 {
		fatal(fmt.Errorf("need -addrs with at least two entries"))
	}
	if *rank < 0 || *rank >= len(addrs) {
		fatal(fmt.Errorf("-rank %d out of range for %d addresses", *rank, len(addrs)))
	}
	b, err := harness.BenchmarkByName(*bench)
	if err != nil {
		fatal(err)
	}
	link, err := simnet.PresetByName(*netPreset)
	if err != nil {
		fatal(err)
	}

	if *autotune && *fusion > 0 {
		fatal(fmt.Errorf("-autotune is mutually exclusive with -fusion-bytes"))
	}
	if *elasticJoin {
		*elastic = true
		if *resume {
			fatal(fmt.Errorf("-resume and -elastic-join are mutually exclusive: a joiner adopts the group's state, it has no checkpoints of its own to resume"))
		}
	}
	if *elastic {
		*rejoin = true
		if *ckptEvery <= 0 {
			fatal(fmt.Errorf("-elastic needs -checkpoint-every > 0 (the shrink rolls back to a recent periodic step)"))
		}
	}
	if (*resume || *rejoin) && *ckptDir == "" {
		fatal(fmt.Errorf("-resume and -rejoin need -checkpoint-dir (they roll back to checkpoints)"))
	}
	if *rejoin && *heartbeat <= 0 {
		fatal(fmt.Errorf("-rejoin needs -heartbeat (peer death is convicted by the liveness layer)"))
	}

	// The ring is dialed with frame deadlines off: op timeouts are owned by
	// the context layer below (comm.WithTimeout), which bounds each whole
	// collective instead of each wire frame. With -heartbeat the ring can
	// reform under the next generation after a peer death; whether the
	// trainer asks it to is -rejoin / -elastic's business, not the ring's.
	// Founding, respawned or joining, the process binds its own address.
	ln, err := net.Listen("tcp", addrs[*rank])
	if err != nil {
		fatal(fmt.Errorf("ring setup: %w", err))
	}
	rcfg := comm.RingConfig{
		Rank:          *rank,
		Addrs:         addrs,
		SetupTimeout:  *timeout,
		OpTimeout:     -1,
		MaxFrameBytes: *maxframe,
		Heartbeat:     *heartbeat,
		Listener:      ln,
	}
	var ring *comm.TCPRing
	if *elasticJoin {
		ring, err = comm.JoinTCPRing(rcfg, *timeout)
	} else {
		ring, err = comm.DialTCPRingConfig(rcfg)
	}
	if err != nil {
		fatal(fmt.Errorf("ring setup: %w", err))
	}
	defer ring.Close()
	fmt.Printf("rank %d/%d joined the ring\n", *rank, len(addrs))

	// The worker's collective handle: the hardened ring, optionally wrapped in
	// a fault injector when a -chaos plan is given, then in the per-op
	// deadline wrapper, then — outermost — the bounded-retry wrapper when a
	// -retry-budget is given, so its retries cover injected faults and
	// deadline expiries alike.
	var coll comm.Collective = ring
	if *chaos != "" {
		plan, err := comm.ParsePlan(*chaos, *chaosSeed)
		if err != nil {
			fatal(fmt.Errorf("bad -chaos plan: %w", err))
		}
		fy := comm.NewFaulty(coll, plan)
		defer func() {
			c := fy.Counts()
			fmt.Printf("rank %d injected faults: %d delays, %d drops, %d corruptions, %d resets, %d stalls\n",
				*rank, c.Delays, c.Drops, c.Corruptions, c.Resets, c.Stalls)
		}()
		coll = fy
	}
	coll = comm.WithTimeout(coll, *optimeout)
	if *retryBudget > 0 {
		rs := comm.NewResilient(coll, comm.RetryPolicy{Budget: *retryBudget, Seed: *seed})
		defer func() {
			if n := rs.Retries(); n > 0 {
				fmt.Printf("rank %d absorbed %d transient failures (%d reforms)\n", *rank, n, rs.Reforms())
			}
		}()
		coll = rs
	}

	sc := harness.SweepConfig{
		Workers: len(addrs), Net: link, Scale: *scale, Seed: *seed,
		CodecParallelism: *codecpar,
		FusionBytes:      *fusion,
	}
	if *xr {
		sc.XRank = grace.XRankConfig{
			AggregateEvery: *xrEvery,
			ArtifactsDir:   *xrDir,
		}
	}
	cfg := b.TrainConfig(harness.MethodSpec{
		Label: *method,
		Name:  *method,
		Opts:  grace.BuildOptions(grace.WithRatio(*ratio), grace.WithLevels(*levels), grace.WithRank(*rank_)),
		EF:    *ef,
	}, sc)
	if *autotune {
		// Tuner mode: the policy engine is a pure function of rank-identical
		// inputs, so every rank building the same tuner from the shared link
		// preset and group size stays in lockstep without extra collectives.
		// The tuned run always trains with the framework error-feedback
		// memory.
		cfg.UseMemory = true
		cfg.NewCompressor, cfg.NewTuner = nil, harness.NewDefaultTuner(sc)
	}

	// Crash-consistent checkpointing. Each rank snapshots its own full state;
	// a resume or a heal negotiates the newest step every rank can load (dirs
	// may live on different machines, and a crash can leave the victim an
	// interval behind), so every replica rolls back to the same point.
	if *ckptDir != "" {
		d, err := ckpt.OpenDir(*ckptDir)
		if err != nil {
			fatal(err)
		}
		cfg.Checkpoint = &grace.CheckpointConfig{
			Store:  d,
			Every:  *ckptEvery,
			Resume: *resume,
			Heal:   *rejoin,
			OnHeal: func(gen uint64, step int64) {
				fmt.Printf("rank %d: rolled back to step %d at generation %d\n", *rank, step, gen)
			},
		}
		if *elastic {
			// A joiner's deadline also bounds its JoinGroup wait, and absorption
			// needs the members to reach their next step boundary first — give it
			// the setup budget rather than the (possibly much shorter) vote
			// deadline the members run with.
			deadline := *rejoinDl
			if *elasticJoin && *timeout > deadline {
				deadline = *timeout
			}
			cfg.Elastic = &grace.ElasticConfig{
				RejoinDeadline: deadline,
				JoinOnStart:    *elasticJoin,
				OnResize: func(m comm.Membership, step int64) {
					fmt.Printf("rank %d: group resized to %d members (generation %d) at step %d\n",
						*rank, m.Size(), m.Gen, step)
				},
			}
		}
	}

	rep, err := grace.RunWorker(cfg, *rank, coll, cfg.Cluster())
	if err != nil {
		fatal(err)
	}
	if *rank == 0 {
		fmt.Printf("\n%-6s %-12s %-10s\n", "epoch", b.Metric, "time (s)")
		for i := range rep.EpochQuality {
			fmt.Printf("%-6d %-12.4f %-10.2f\n", i+1, rep.EpochQuality[i], rep.EpochVirtualTime[i].Seconds())
		}
		fmt.Printf("\nbest %s: %.4f | %.1f samples/s | %.0f bytes/iter/worker\n",
			b.Metric, rep.BestQuality, rep.Throughput, rep.BytesPerIter)
		if *autotune {
			fmt.Printf("autotune: %d switches | final policy: %s\n",
				rep.Switches, strings.Join(rep.FinalPolicy, ", "))
		}
	} else {
		fmt.Printf("rank %d finished %d iterations (%.0f bytes/iter)\n", *rank, rep.Iters, rep.BytesPerIter)
	}
	finishTel()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graceworker:", err)
	os.Exit(1)
}
