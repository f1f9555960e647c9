package harness

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/grace"
	"repro/internal/simnet"
)

// TestMain doubles as the entry point for the SIGKILL recovery test's worker
// processes: the test re-execs its own binary with GRACE_RECOVERY_WORKER set,
// so each rank of the real TCP ring is a genuine OS process that can be
// killed dead.
func TestMain(m *testing.M) {
	if os.Getenv("GRACE_RECOVERY_WORKER") != "" {
		os.Exit(recoveryWorkerMain())
	}
	os.Exit(m.Run())
}

// runRecoveryCase executes the supervised kill/restart scenario on one
// transport and requires bitwise-identical finals plus properly typed
// failure evidence from the crash phase.
func runRecoveryCase(t *testing.T, transport, method string, mem bool) {
	t.Helper()
	res, err := RunScenario(ScenarioRestart, DefaultRecovery(transport, method, mem, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumeStep != 3 {
		t.Fatalf("resumed from step %d, want 3", res.ResumeStep)
	}
	if !res.Match {
		t.Fatalf("recovered run diverged: %s", res.Detail)
	}
	if !errors.Is(res.KillErrs[1], ErrSimulatedCrash) {
		t.Fatalf("victim error = %v", res.KillErrs[1])
	}
	for _, rank := range []int{0, 2} {
		var ce *comm.Error
		if !errors.As(res.KillErrs[rank], &ce) {
			t.Fatalf("survivor rank %d error is untyped: %v", rank, res.KillErrs[rank])
		}
		if transport == TransportTCP && !errors.Is(res.KillErrs[rank], comm.ErrPeerDead) {
			t.Fatalf("survivor rank %d error = %v, want comm.ErrPeerDead from the liveness layer",
				rank, res.KillErrs[rank])
		}
	}
}

func TestRecoveryBitwiseHub(t *testing.T) {
	for _, tc := range []struct {
		method string
		mem    bool
	}{
		{"topk", true}, // stateless codec + framework EF memory
		{"dgc", false}, // codec-internal EF state
	} {
		t.Run(tc.method, func(t *testing.T) {
			runRecoveryCase(t, TransportHub, tc.method, tc.mem)
		})
	}
}

func TestRecoveryBitwiseTCP(t *testing.T) {
	for _, tc := range []struct {
		method string
		mem    bool
	}{
		{"topk", true},
		{"dgc", false},
	} {
		t.Run(tc.method, func(t *testing.T) {
			runRecoveryCase(t, TransportTCP, tc.method, tc.mem)
		})
	}
}

// TestRecoveryBitwiseAutotune runs the supervised kill/restart scenario with
// the workers in autotuning mode on both transports: the rollback lands
// mid-warmup, and the finals must agree with the uninterrupted reference on
// params AND policy state bit for bit (snapshotsBitwiseEqual compares both).
func TestRecoveryBitwiseAutotune(t *testing.T) {
	for _, transport := range []string{TransportHub, TransportTCP} {
		t.Run(transport, func(t *testing.T) {
			res, err := RunScenario(ScenarioRestart, AutotuneRecovery(transport, t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			if res.ResumeStep != 3 {
				t.Fatalf("resumed from step %d, want 3", res.ResumeStep)
			}
			if !res.Match {
				t.Fatalf("recovered autotune run diverged: %s", res.Detail)
			}
			for rank, s := range res.Finals {
				if s.Tuner == nil {
					t.Fatalf("rank %d final snapshot carries no policy state", rank)
				}
				if s.Tuner.Switches == 0 {
					t.Fatalf("rank %d policy recorded no switches over the run", rank)
				}
			}
		})
	}
}

// recoveryWorkerMain is one rank of the SIGKILL scenario: a real TCP-ring
// worker checkpointing to disk, optionally resuming (GRACE_RESUME: the sync
// round before the first step), optionally slowed down so the parent can
// time its kill.
func recoveryWorkerMain() int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rank, err := strconv.Atoi(os.Getenv("GRACE_RANK"))
	if err != nil {
		return fail(fmt.Errorf("bad GRACE_RANK: %w", err))
	}
	addrs := strings.Split(os.Getenv("GRACE_ADDRS"), ",")
	dir := os.Getenv("GRACE_DIR")
	delayMS, _ := strconv.Atoi(os.Getenv("GRACE_STEP_DELAY_MS"))

	cfg := DefaultRecovery(TransportTCP, "topk", true, dir).Train
	if os.Getenv("GRACE_MODE") == "autotune" {
		cfg = AutotuneRecovery(TransportTCP, dir).Train
	}
	rcfg := comm.RingConfig{
		Rank: rank, Addrs: addrs,
		SetupTimeout: 20 * time.Second,
		OpTimeout:    30 * time.Second,
		Heartbeat:    25 * time.Millisecond,
	}
	ring, err := comm.DialTCPRingConfig(rcfg)
	if err != nil {
		return fail(err)
	}
	defer ring.Close()
	d, err := ckpt.OpenDir(dir)
	if err != nil {
		return fail(err)
	}
	cfg.Checkpoint = &grace.CheckpointConfig{
		Store:  d,
		Every:  2,
		Resume: os.Getenv("GRACE_RESUME") != "",
		// In rejoin mode a peer's SIGKILL is healed by generation reform of
		// this same ring instead of ending this process.
		Heal: os.Getenv("GRACE_REJOIN") != "",
		OnHeal: func(gen uint64, step int64) {
			fmt.Printf("rank %d: healed to step %d at generation %d\n", rank, step, gen)
		},
	}
	if delayMS > 0 {
		cfg.OnStep = func(int, int64) error {
			time.Sleep(time.Duration(delayMS) * time.Millisecond)
			return nil
		}
	}
	if _, err := grace.RunWorker(cfg, rank, ring, simnet.NewCluster(cfg.Net, cfg.Workers)); err != nil {
		return fail(err)
	}
	return 0
}

// reserveLoopbackAddrs reserves n distinct loopback ports by listening on
// them and closing the listeners again, for the worker processes to bind.
// In-process rings are handed bound listeners instead; handing a socket to
// a child process would need a graceworker flag, so a port taken by another
// test between the close and a child's bind remains possible here.
func reserveLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

type workerProc struct {
	cmd *exec.Cmd
	out bytes.Buffer
}

func startWorkers(t *testing.T, exe, mode, dir string, addrs []string, delayMS int, extraEnv ...string) []*workerProc {
	t.Helper()
	procs := make([]*workerProc, len(addrs))
	for rank := range addrs {
		procs[rank] = startWorker(t, exe, mode, dir, addrs, rank, delayMS, extraEnv...)
	}
	return procs
}

// startWorker launches a single rank, so the rejoin scenario can respawn just
// the SIGKILLed one.
func startWorker(t *testing.T, exe, mode, dir string, addrs []string, rank int, delayMS int, extraEnv ...string) *workerProc {
	t.Helper()
	p := &workerProc{cmd: exec.Command(exe)}
	p.cmd.Env = append(os.Environ(),
		"GRACE_RECOVERY_WORKER=1",
		"GRACE_MODE="+mode,
		"GRACE_RANK="+strconv.Itoa(rank),
		"GRACE_ADDRS="+strings.Join(addrs, ","),
		"GRACE_DIR="+dir,
		"GRACE_STEP_DELAY_MS="+strconv.Itoa(delayMS),
	)
	p.cmd.Env = append(p.cmd.Env, extraEnv...)
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return p
}

// waitForCheckpoint polls until rank's newest loadable checkpoint in dir
// reaches step, failing the test after a minute with every rank's output: the
// rank that left the run early is not necessarily the one waited on.
func waitForCheckpoint(t *testing.T, dir string, rank int, step int64, procs []*workerProc) {
	t.Helper()
	d, err := ckpt.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if steps, _ := d.Steps(rank); len(steps) > 0 && steps[len(steps)-1] >= step {
			return
		}
		if time.Now().After(deadline) {
			var out strings.Builder
			for r, p := range procs {
				fmt.Fprintf(&out, "--- rank %d:\n%s\n", r, &p.out)
			}
			t.Fatalf("rank %d never reached step %d; output:\n%s", rank, step, &out)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// loadStep loads every rank's checkpoint at step from dir.
func loadStep(t *testing.T, dir string, n int, step int64) []*grace.Snapshot {
	t.Helper()
	d, err := ckpt.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*grace.Snapshot, n)
	for rank := range out {
		if out[rank], err = d.Load(rank, step); err != nil {
			t.Fatalf("%s rank %d step %d: %v", dir, rank, step, err)
		}
	}
	return out
}

// runSIGKILLScenario is the end-to-end chaos flow shared by the fixed-method
// and autotune SIGKILL tests: three OS processes on a real
// heartbeat-enabled TCP ring, one SIGKILLed mid-run, all restarted with
// Resume (the sync round picks the newest common checkpoint), then every
// checkpoint step in compareSteps
// (worker cadence is 2) compared bitwise against an uninterrupted
// multi-process run — params and, in autotune mode, the policy trajectory.
func runSIGKILLScenario(t *testing.T, mode string, compareSteps []int64) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const n = 3
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	refDir := root + "/ref"
	dir := root + "/run"

	// Kill every stray child if the test aborts early.
	var all []*workerProc
	defer func() {
		for _, p := range all {
			p.cmd.Process.Kill()
		}
	}()
	wait := func(procs []*workerProc, rank int) error {
		return procs[rank].cmd.Wait()
	}

	// Uninterrupted multi-process reference.
	addrs, err := reserveLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	ref := startWorkers(t, exe, mode, refDir, addrs, 0)
	all = append(all, ref...)
	for rank := 0; rank < n; rank++ {
		if err := wait(ref, rank); err != nil {
			t.Fatalf("reference rank %d: %v\n%s", rank, err, &ref[rank].out)
		}
	}

	// Crash run: slowed steps so the SIGKILL lands mid-run. The parent waits
	// until the victim's step-4 checkpoint is durable, then kills it dead.
	if addrs, err = reserveLoopbackAddrs(n); err != nil {
		t.Fatal(err)
	}
	const victim = 1
	procs := startWorkers(t, exe, mode, dir, addrs, 200)
	all = append(all, procs...)
	waitForCheckpoint(t, dir, victim, 4, procs)
	if err := procs[victim].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := wait(procs, victim); err == nil {
		t.Fatal("victim exited cleanly despite SIGKILL")
	}
	for _, rank := range []int{0, 2} {
		if err := wait(procs, rank); err == nil {
			t.Fatalf("survivor rank %d completed despite the dead peer", rank)
		}
		if out := procs[rank].out.String(); !strings.Contains(out, "comm: rank") {
			t.Fatalf("survivor rank %d exited without a typed comm error:\n%s", rank, out)
		}
	}

	// Supervised restart: every rank resumes from the newest step all ranks
	// can load.
	if addrs, err = reserveLoopbackAddrs(n); err != nil {
		t.Fatal(err)
	}
	resumed := startWorkers(t, exe, mode, dir, addrs, 0, "GRACE_RESUME=1")
	all = append(all, resumed...)
	for rank := 0; rank < n; rank++ {
		if err := wait(resumed, rank); err != nil {
			t.Fatalf("resumed rank %d: %v\n%s", rank, err, &resumed[rank].out)
		}
		if out := resumed[rank].out.String(); !strings.Contains(out, "healed to step") {
			t.Fatalf("resumed rank %d started fresh instead of rolling back:\n%s", rank, out)
		}
	}

	// Every requested checkpoint step must match the reference bit for bit
	// (steps before the rollback come from the crash run's own trajectory,
	// steps after it from the resumed one — all must agree).
	for _, step := range compareSteps {
		got, want := loadStep(t, dir, n, step), loadStep(t, refDir, n, step)
		for rank := 0; rank < n; rank++ {
			if mode == "autotune" && want[rank].Tuner == nil {
				t.Fatalf("reference rank %d step %d snapshot carries no policy state", rank, step)
			}
		}
		if ok, detail := snapshotsBitwiseEqual(got, want); !ok {
			t.Fatalf("SIGKILL recovery diverged at step %d: %s", step, detail)
		}
	}
}

// TestRecoverySIGKILLTCP: the fixed-method scenario, comparing the step-8
// finals.
func TestRecoverySIGKILLTCP(t *testing.T) {
	runSIGKILLScenario(t, "", []int64{8})
}

// TestRejoinSIGKILLTCP: the live-rejoin path under a genuine SIGKILL. Three
// OS processes on a real heartbeat-enabled TCP ring run in self-healing mode;
// rank 1 is killed dead mid-run and ONLY rank 1 is relaunched (with
// GRACE_RESUME, the graceworker -resume path). The survivors' processes are
// never restarted — the same PIDs that joined the ring at generation 0 exit
// cleanly after healing — and the step-8 finals must match an uninterrupted
// multi-process reference bit for bit.
func TestRejoinSIGKILLTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const n = 3
	const victim = 1
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	refDir := root + "/ref"
	dir := root + "/run"

	var all []*workerProc
	defer func() {
		for _, p := range all {
			p.cmd.Process.Kill()
		}
	}()

	// Uninterrupted multi-process reference, also in self-healing mode so the
	// code path under comparison is identical.
	addrs, err := reserveLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	ref := startWorkers(t, exe, "", refDir, addrs, 0, "GRACE_REJOIN=1")
	all = append(all, ref...)
	for rank := 0; rank < n; rank++ {
		if err := ref[rank].cmd.Wait(); err != nil {
			t.Fatalf("reference rank %d: %v\n%s", rank, err, &ref[rank].out)
		}
	}

	// Self-healing run: slowed steps so the SIGKILL lands mid-run.
	if addrs, err = reserveLoopbackAddrs(n); err != nil {
		t.Fatal(err)
	}
	procs := startWorkers(t, exe, "", dir, addrs, 200, "GRACE_REJOIN=1")
	all = append(all, procs...)
	waitForCheckpoint(t, dir, victim, 4, procs)
	survivorPIDs := [2]int{procs[0].cmd.Process.Pid, procs[2].cmd.Process.Pid}
	if err := procs[victim].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := procs[victim].cmd.Wait(); err == nil {
		t.Fatal("victim exited cleanly despite SIGKILL")
	}

	// Respawn ONLY the victim, syncing into the live group. The survivors are
	// parked at the reform rendezvous; their processes are untouched.
	respawn := startWorker(t, exe, "", dir, addrs, victim, 0,
		"GRACE_REJOIN=1", "GRACE_RESUME=1")
	all = append(all, respawn)
	if err := respawn.cmd.Wait(); err != nil {
		t.Fatalf("respawned victim: %v\n%s", err, &respawn.out)
	}
	for _, rank := range []int{0, 2} {
		if err := procs[rank].cmd.Wait(); err != nil {
			t.Fatalf("survivor rank %d: %v\n%s", rank, err, &procs[rank].out)
		}
		out := procs[rank].out.String()
		if !strings.Contains(out, "healed to step 4 at generation 1") {
			t.Fatalf("survivor rank %d never reported the heal:\n%s", rank, out)
		}
	}
	// The healthy ranks' processes were started exactly once; assert the PIDs
	// that finished are the ones that joined at generation 0.
	if procs[0].cmd.Process.Pid != survivorPIDs[0] || procs[2].cmd.Process.Pid != survivorPIDs[1] {
		t.Fatal("survivor process identity changed across the heal")
	}

	got, want := loadStep(t, dir, n, 8), loadStep(t, refDir, n, 8)
	if ok, detail := snapshotsBitwiseEqual(got, want); !ok {
		t.Fatalf("SIGKILL rejoin diverged: %s", detail)
	}
}

// TestRecoverySIGKILLAutotuneTCP: SIGKILL mid-run with autotune on. The
// whole retained checkpoint trajectory (steps 4, 6, 8 — cadence 2 with
// ckpt.DefaultKeep = 3) is compared, so the resumed policy must re-derive
// the exact decision sequence — candidate assignments, switch counts,
// observed volumes — the reference run took, alongside bitwise-identical
// params.
func TestRecoverySIGKILLAutotuneTCP(t *testing.T) {
	runSIGKILLScenario(t, "autotune", []int64{4, 6, 8})
}
