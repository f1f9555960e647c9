package grace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// The heal path's own tests: worker.heal and its neighbours driven over
// comm.Hub with an in-memory checkpoint store, so shrink, grow, the
// MinWorkers floor, the join floor and the heal bound are covered in this
// package rather than only through internal/harness. Codec packages import
// grace, so the tests bring two minimal codecs of their own.

// denseCodec is the identity codec over Allreduce.
type denseCodec struct{}

func (denseCodec) Name() string       { return "dense" }
func (denseCodec) Strategy() Strategy { return Allreduce }
func (denseCodec) Compress(g []float32, _ TensorInfo) (*Payload, error) {
	return &Payload{Dense: append([]float32(nil), g...)}, nil
}
func (denseCodec) Decompress(p *Payload, _ TensorInfo) ([]float32, error) {
	return append([]float32(nil), p.Dense...), nil
}

// rawCodec ships the float32 bits as an opaque Allgather payload.
type rawCodec struct{}

func (rawCodec) Name() string       { return "raw" }
func (rawCodec) Strategy() Strategy { return Allgather }
func (rawCodec) Compress(g []float32, _ TensorInfo) (*Payload, error) {
	b := make([]byte, 4*len(g))
	for i, v := range g {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return &Payload{Bytes: b}, nil
}
func (rawCodec) Decompress(p *Payload, info TensorInfo) ([]float32, error) {
	if len(p.Bytes) != 4*info.Size() {
		return nil, fmt.Errorf("raw: %d bytes for %d elements", len(p.Bytes), info.Size())
	}
	out := make([]float32, info.Size())
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(p.Bytes[4*i:]))
	}
	return out, nil
}

// memStore is an in-memory Store for every rank of a group.
type memStore struct {
	mu    sync.Mutex
	snaps map[int]map[int64]*Snapshot // rank → step → snapshot
}

func (m *memStore) Save(s *Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snaps == nil {
		m.snaps = make(map[int]map[int64]*Snapshot)
	}
	if m.snaps[s.Rank] == nil {
		m.snaps[s.Rank] = make(map[int64]*Snapshot)
	}
	m.snaps[s.Rank][s.Step] = s
	return nil
}

func (m *memStore) Steps(rank int) ([]int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var steps []int64
	for s := range m.snaps[rank] {
		steps = append(steps, s)
	}
	return steps, nil
}

func (m *memStore) Load(rank int, step int64) (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.snaps[rank][step]
	if !ok {
		return nil, fmt.Errorf("no rank %d snapshot at step %d", rank, step)
	}
	return s, nil
}

func (m *memStore) Encode(s *Snapshot) []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(s); err != nil {
		panic(err)
	}
	return b.Bytes()
}

func (m *memStore) Decode(b []byte) (*Snapshot, error) {
	s := new(Snapshot)
	return s, gob.NewDecoder(bytes.NewReader(b)).Decode(s)
}

// last returns rank's newest snapshot.
func (m *memStore) last(rank int) *Snapshot {
	steps, _ := m.Steps(rank)
	var out *Snapshot
	for _, step := range steps {
		if s, _ := m.Load(rank, step); out == nil || s.Step > out.Step {
			out = s
		}
	}
	return out
}

// healConfig is a small MLP run sized like the harness scenarios: 96 samples
// in batches of 8, so 3 workers take 4 steps per epoch and 2 workers take 6.
func healConfig(workers int) Config {
	return Config{
		Workers:   workers,
		BatchSize: 8,
		Epochs:    2,
		Seed:      13,
		NewModel: func(seed uint64) Model {
			return models.NewMLPClassifier(seed, 64, []int{24}, 4)
		},
		Dataset:       data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 8, W: 8, N: 96, Noise: 0.3, Seed: 7}),
		NewOptimizer:  func() optim.Optimizer { return optim.NewMomentumSGD(0.05, 0.9) },
		NewCompressor: func(int) (Compressor, error) { return denseCodec{}, nil },
		UseMemory:     true,
		Net:           simnet.TCP10G,
	}
}

var errTestCrash = errors.New("test: simulated crash")

// healGroup runs one RunWorker per original rank over a hub in self-healing
// mode and collects what each rank reported.
type healGroup struct {
	hub   *comm.Hub
	base  Config
	store *memStore
	// elastic selects ElasticConfig (shrink vote after a 50ms deadline) on
	// top of Heal.
	elastic bool

	mu      sync.Mutex
	resizes []comm.Membership
	heals   []int64 // rollback steps, one per OnHeal
	reports map[int]*Report
	errs    map[int]error
	wg      sync.WaitGroup
}

func newHealGroup(workers int, elastic bool) *healGroup {
	g := &healGroup{hub: comm.NewHub(workers), base: healConfig(workers), store: &memStore{},
		elastic: elastic, reports: make(map[int]*Report), errs: make(map[int]error)}
	g.hub.SetReformTimeout(20 * time.Second)
	return g
}

// start launches rank over coll; joiner marks a JoinOnStart worker and onStep
// is the rank's step hook.
func (g *healGroup) start(rank int, coll comm.Collective, joiner bool, onStep func(step int64) error) {
	cfg := g.base
	cfg.Checkpoint = &CheckpointConfig{Store: g.store, Every: 3, Heal: true, OnHeal: func(_ uint64, step int64) {
		g.mu.Lock()
		g.heals = append(g.heals, step)
		g.mu.Unlock()
	}}
	if g.elastic {
		deadline := 50 * time.Millisecond
		if joiner {
			deadline = 20 * time.Second // bounds the JoinGroup wait
		}
		cfg.Elastic = &ElasticConfig{
			RejoinDeadline: deadline,
			JoinOnStart:    joiner,
			OnResize: func(m comm.Membership, _ int64) {
				g.mu.Lock()
				g.resizes = append(g.resizes, m)
				g.mu.Unlock()
			},
		}
	}
	if onStep != nil {
		cfg.OnStep = func(_ int, step int64) error { return onStep(step) }
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		rep, err := RunWorker(cfg, rank, coll, simnet.NewCluster(cfg.Net, cfg.Workers))
		g.mu.Lock()
		g.reports[rank], g.errs[rank] = rep, err
		g.mu.Unlock()
	}()
}

// dieAt returns the victim's hook: at step it delivers the liveness verdict
// the way a transport's heartbeat layer would and stops.
func (g *healGroup) dieAt(at int64) func(int64) error {
	return func(step int64) error {
		if step == at {
			g.hub.Abort(fmt.Errorf("test: victim died: %w", comm.ErrPeerDead))
			return errTestCrash
		}
		return nil
	}
}

func (g *healGroup) sawSize(size int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.resizes {
		if m.Size() == size {
			return true
		}
	}
	return false
}

func TestWorkerHealShrinkAccountsEFDrops(t *testing.T) {
	g := newHealGroup(3, true)
	drops0 := telemetry.Default.Value(telemetry.CtrElasticEFDrops)
	for rank := 0; rank < 3; rank++ {
		var hook func(int64) error
		if rank == 1 {
			hook = g.dieAt(5)
		}
		g.start(rank, g.hub.Worker(rank), false, hook)
	}
	g.wg.Wait()
	if !errors.Is(g.errs[1], errTestCrash) {
		t.Fatalf("victim error = %v", g.errs[1])
	}
	tensors := len(healConfig(3).NewModel(1).Params())
	for _, rank := range []int{0, 2} {
		if g.errs[rank] != nil {
			t.Fatalf("survivor %d: %v", rank, g.errs[rank])
		}
		// resize → Rebind: the survivor finishes at the committed size with
		// the evicted rank's residual set declared lost on every tensor.
		if s := g.store.last(rank); s.Workers != 2 {
			t.Fatalf("survivor %d finished at world size %d, want 2", rank, s.Workers)
		}
		q := g.reports[rank].Quality
		if len(q) != tensors {
			t.Fatalf("survivor %d reports %d tensors, want %d", rank, len(q), tensors)
		}
		for _, tq := range q {
			if tq.EFDrops != 1 {
				t.Fatalf("survivor %d tensor %s: EFDrops = %d, want 1", rank, tq.Name, tq.EFDrops)
			}
		}
	}
	if got := telemetry.Default.Value(telemetry.CtrElasticEFDrops) - drops0; got < int64(2*tensors) {
		t.Fatalf("elastic_ef_drops_total moved by %d, want at least %d", got, 2*tensors)
	}
	if len(g.resizes) != 2 || len(g.heals) != 2 {
		t.Fatalf("%d resize and %d heal events, want one of each per survivor", len(g.resizes), len(g.heals))
	}
	for _, m := range g.resizes {
		if m.Size() != 2 || len(m.Lost) != 1 || m.Lost[0] != 1 {
			t.Fatalf("committed membership %+v, want size 2 with rank 1 lost", m)
		}
	}
	for _, step := range g.heals {
		if step != 3 {
			t.Fatalf("healed to step %d, want the step-3 checkpoint", step)
		}
	}
}

// TestWorkerHealGrowViaJoinBeacon: after a shrink, a fresh worker registers
// under the lost original rank; the members' join beacon observes it, every
// member unwinds with the growSignal, and the joiner adopts a donor snapshot.
// The joiner's store still holds its first incarnation's step-3 checkpoint,
// which the join floor must keep out of the negotiation.
func TestWorkerHealGrowViaJoinBeacon(t *testing.T) {
	g := newHealGroup(3, true)
	transfer0 := telemetry.Default.Value(telemetry.CtrRejoinTransferBytes)
	registered := make(chan struct{})
	// Past the shrink's rollback the survivors wait for the registration, so
	// the beacon is guaranteed to see it before the run ends.
	gate := func(step int64) error {
		if step >= 6 && g.sawSize(2) {
			<-registered
		}
		return nil
	}
	g.start(0, g.hub.Worker(0), false, gate)
	g.start(1, g.hub.Worker(1), false, g.dieAt(5))
	g.start(2, g.hub.Worker(2), false, gate)
	deadline := time.Now().Add(20 * time.Second)
	for !g.sawSize(2) {
		if time.Now().After(deadline) {
			t.Fatal("the survivors never committed the shrink")
		}
		time.Sleep(time.Millisecond)
	}
	if s := g.store.last(1); s == nil || s.Step != 3 {
		t.Fatalf("victim's store should hold its pre-eviction step-3 checkpoint, has %+v", s)
	}
	joiner, err := g.hub.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	g.start(1, joiner, true, nil)
	close(registered)
	g.wg.Wait()
	for rank := 0; rank < 3; rank++ {
		if g.errs[rank] != nil {
			t.Fatalf("rank %d: %v", rank, g.errs[rank])
		}
		if s := g.store.last(rank); s.Workers != 3 {
			t.Fatalf("rank %d finished at world size %d, want 3", rank, s.Workers)
		}
	}
	if !g.sawSize(3) {
		t.Fatal("no rank reported the grow")
	}
	if telemetry.Default.Value(telemetry.CtrRejoinTransferBytes) == transfer0 {
		t.Fatal("the joiner did not adopt a donor snapshot: its stale checkpoint leaked past the join floor")
	}
	// Synchronous data-parallel replicas stay identical: the joiner's finals
	// equal a survivor's bit for bit.
	a, b := g.store.last(0), g.store.last(1)
	for i := range a.Params {
		for j := range a.Params[i].Data {
			if math.Float32bits(a.Params[i].Data[j]) != math.Float32bits(b.Params[i].Data[j]) {
				t.Fatalf("joiner diverged from rank 0 at %s[%d]", a.Params[i].Name, j)
			}
		}
	}
}

func TestWorkerShrinkBelowFloorIsFatal(t *testing.T) {
	g := newHealGroup(2, true)
	g.start(0, g.hub.Worker(0), false, nil)
	g.start(1, g.hub.Worker(1), false, g.dieAt(5))
	g.wg.Wait()
	err := g.errs[0]
	if !errors.Is(err, comm.ErrPeerDead) || !strings.Contains(err.Error(), "below the floor of 2") {
		t.Fatalf("survivor error = %v, want the MinWorkers floor wrapping ErrPeerDead", err)
	}
}

// TestWorkerHealBoundExceeded: a group that is convicted again after every
// heal gives up after maxHeals of them instead of rolling back forever.
func TestWorkerHealBoundExceeded(t *testing.T) {
	g := newHealGroup(2, false)
	g.base.Epochs = 4
	flap := func(step int64) error {
		if step >= 3 {
			g.hub.Abort(fmt.Errorf("test: flapping peer: %w", comm.ErrPeerDead))
		}
		return nil
	}
	g.start(0, g.hub.Worker(0), false, flap)
	g.start(1, g.hub.Worker(1), false, nil)
	g.wg.Wait()
	for rank := 0; rank < 2; rank++ {
		err := g.errs[rank]
		if !errors.Is(err, comm.ErrPeerDead) || !strings.Contains(err.Error(), "giving up after 3 heals") {
			t.Fatalf("rank %d error = %v, want the heal bound wrapping ErrPeerDead", rank, err)
		}
	}
	if len(g.heals) != 2*maxHeals {
		t.Fatalf("%d heal events, want %d per rank", len(g.heals), maxHeals)
	}
}

func TestWorkerHealClassifiesFatalCauses(t *testing.T) {
	w := &worker{cfg: Config{Checkpoint: &CheckpointConfig{Heal: true}}}
	cause := errors.New("disk on fire")
	if err := w.heal(cause); err != cause {
		t.Fatalf("heal(%v) = %v, want the cause back untouched", cause, err)
	}
	dead := fmt.Errorf("op failed: %w", comm.ErrPeerDead)
	for _, ck := range []*CheckpointConfig{nil, {}} {
		w.cfg.Checkpoint = ck
		if err := w.heal(dead); err != dead {
			t.Fatalf("heal without Heal (%+v) = %v, want the peer death surfaced", ck, err)
		}
	}
}

func TestWorkerLocalStepsJoinFloor(t *testing.T) {
	store := &memStore{}
	for _, step := range []int64{3, 6, 9} {
		store.Save(&Snapshot{Step: step})
	}
	w := &worker{cfg: Config{Checkpoint: &CheckpointConfig{Store: store}}}
	for _, tc := range []struct {
		floor int64
		want  string
	}{
		{-1, "3,6,9"},       // an ordinary member offers everything
		{math.MaxInt64, ""}, // a joiner before its startup sync offers nothing
		{6, "9"},            // after adopting step 6, only what it wrote since
		{9, ""},
	} {
		w.joinFloor = tc.floor
		got, err := w.localSteps()
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if err != nil || string(encodeStepList(got)) != tc.want {
			t.Errorf("floor %d: localSteps = %v, %v; want %q", tc.floor, got, err, tc.want)
		}
	}
}

func TestElasticSetupErrors(t *testing.T) {
	hub := comm.NewHub(1)
	cfg := healConfig(1)
	cfg.Elastic = &ElasticConfig{}
	run := func() error {
		_, err := RunWorker(cfg, 0, hub.Worker(0), simnet.NewCluster(cfg.Net, 1))
		return err
	}
	for _, ck := range []*CheckpointConfig{nil, {Store: &memStore{}, Every: 3}, {Store: &memStore{}, Heal: true}} {
		cfg.Checkpoint = ck
		if err := run(); err == nil || !strings.Contains(err.Error(), "requires Checkpoint.Heal and Checkpoint.Every") {
			t.Fatalf("Elastic with %+v: %v", ck, err)
		}
	}
	cfg.Checkpoint = &CheckpointConfig{Store: &memStore{}, Every: 3, Heal: true}
	cfg.SyncEvery = 2
	if err := run(); err == nil || !strings.Contains(err.Error(), "local-SGD") {
		t.Fatalf("Elastic with local SGD: %v", err)
	}
	cfg.SyncEvery = 0
	// A collective whose elastic capability is hidden behind a bare interface.
	_, err := RunWorker(cfg, 0, struct{ comm.Collective }{hub.Worker(0)}, simnet.NewCluster(cfg.Net, 1))
	if err == nil || !strings.Contains(err.Error(), "comm.Elastic") {
		t.Fatalf("Elastic over an inelastic collective: %v", err)
	}
}

// TestModeledStepCommTimeFused: a fused run charges one latency per bucket
// instead of one per tensor, for both fusable strategies.
func TestModeledStepCommTimeFused(t *testing.T) {
	for _, codec := range []Compressor{denseCodec{}, rawCodec{}} {
		run := func(fusion FusionConfig) *Report {
			cfg := healConfig(3)
			cfg.UseMemory = false
			cfg.Epochs = 1
			cfg.Fusion = fusion
			cfg.NewCompressor = func(int) (Compressor, error) { return codec, nil }
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", codec.Name(), err)
			}
			return rep
		}
		plain, fused := run(FusionConfig{}), run(FusionConfig{TargetBytes: 1 << 20})
		if fused.CommTime <= 0 || fused.CommTime >= plain.CommTime {
			t.Fatalf("%s: fused modeled comm time %v, unfused %v; want 0 < fused < unfused",
				codec.Name(), fused.CommTime, plain.CommTime)
		}
	}
}
