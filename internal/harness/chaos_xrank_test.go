package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/telemetry"
	"repro/internal/telemetry/xrank"
)

// TestChaosResetProducesFlightRecording is the fault-path acceptance check:
// a chaos run with an injected connection reset must (a) freeze a
// flight-recorder dump and (b) leave a merged event stream whose Chrome
// trace shows the faulting op on the faulting rank.
func TestChaosResetProducesFlightRecording(t *testing.T) {
	dir := t.TempDir()
	tel := telemetry.Default
	tel.Reset()
	prev := tel.Enabled()
	tel.Enable(true)
	tel.ConfigureFlight(dir)
	defer func() {
		tel.ConfigureFlight("")
		tel.Enable(prev)
	}()

	const faultRank = 2
	cfg := ChaosConfig{
		Workers: 4, Tensors: 5, Steps: 20, Method: "none",
		Scenarios: []ChaosScenario{{
			Name:        "reset",
			ExpectError: true,
			Plan: comm.Plan{Seed: 9, Faults: []comm.Fault{
				{Kind: comm.FaultReset, Rank: faultRank, Op: comm.OpAllreduce, FromStep: 30},
			}},
		}},
	}
	results := RunChaos(cfg)
	if len(results) != 1 || !results[0].Pass {
		t.Fatalf("reset scenario did not pass: %+v", results)
	}

	// (a) The comm layer's fault choke point must have frozen a dump whose
	// events include the injected fault.
	dumps, err := filepath.Glob(filepath.Join(dir, "FLIGHT_*.json"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no flight dump written (err=%v)", err)
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var d telemetry.FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	if !strings.HasPrefix(d.Reason, "comm_") {
		t.Fatalf("dump reason %q, want a comm_<op> fault", d.Reason)
	}
	anyFault := false
	for _, ev := range d.Events {
		if ev.Kind == telemetry.KindFault {
			anyFault = true
		}
	}
	if !anyFault {
		t.Fatalf("dump carries no fault events (%d events)", len(d.Events))
	}

	// (b) The merged stream (in-process, the recorder IS the merge) must
	// pin the allreduce fault on the injected rank, and the rendered Chrome
	// trace must carry that instant on the faulting rank's pid.
	evs, _ := tel.Events(0)
	found := false
	for _, ev := range evs {
		if ev.Kind == telemetry.KindFault && ev.Rank == faultRank && ev.Op == telemetry.OpAllreduce {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("merged events missing the rank-%d allreduce fault (%d events)", faultRank, len(evs))
	}
	tracePath := filepath.Join(dir, "trace.json")
	if err := xrank.WriteTrace(tracePath, evs); err != nil {
		t.Fatal(err)
	}
	traw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
	}
	if err := json.Unmarshal(traw, &trace); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	for _, ev := range trace {
		if ev.Ph == "i" && ev.Pid == faultRank && strings.Contains(ev.Name, "allreduce") && strings.HasPrefix(ev.Name, "fault:") {
			return
		}
	}
	t.Fatalf("rendered trace lacks the fault instant on rank %d", faultRank)
}
