package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"dagsched/internal/cliflags"
	"dagsched/internal/experiments"
	"dagsched/internal/rational"
	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
	"dagsched/internal/trace"
)

// TestPerfettoPipelineValid runs main's -perfetto export on the adversarial
// instance and checks the exported document against the schema validator and
// a JSON round-trip, so `spaa-sim -perfetto out.json` stays loadable in
// ui.perfetto.dev.
func TestPerfettoPipelineValid(t *testing.T) {
	inst, err := experiments.AdversarialInstance(1)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	rec.Probe = telemetry.NewProbe(1, false)
	sched := makeSchedulerForTest(t)
	telemetry.Attach(sched, rec)
	res, err := sim.Run(sim.Config{
		M: inst.M, Speed: rational.One(), Record: true, Telemetry: rec,
	}, inst.Jobs, sched)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := perfettoTrace(res, inst.Jobs, rec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ct.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails schema check: %v", err)
	}
	if err := trace.CrossCheckEvents(res.Trace, inst.Jobs, rational.One(), rec.Events()); err != nil {
		t.Fatalf("event stream inconsistent with trace: %v", err)
	}
}

func makeSchedulerForTest(t *testing.T) sim.Scheduler {
	t.Helper()
	sched, err := cliflags.MakeScheduler("s", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestPerfettoExportsJobSeries: with -probe-jobs the -perfetto document
// carries the per-job probe series as counter tracks on the jobs process,
// next to the machine series, on both stepping disciplines.
func TestPerfettoExportsJobSeries(t *testing.T) {
	inst, err := experiments.AdversarialInstance(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(sim.Config, []*sim.Job, sim.Scheduler) (*sim.Result, error){
		"tick": sim.Run, "evented": sim.RunEvented,
	} {
		rec := telemetry.NewRecorder()
		rec.Probe = telemetry.NewProbe(1, true)
		sched := makeSchedulerForTest(t)
		telemetry.Attach(sched, rec)
		res, err := run(sim.Config{M: inst.M, Speed: rational.One(), Record: true, Telemetry: rec}, inst.Jobs, sched)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := perfettoTrace(res, inst.Jobs, rec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ct.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
			t.Fatalf("%s: exported trace fails schema check: %v", name, err)
		}
		var doc struct {
			TraceEvents []struct {
				Ph   string `json:"ph"`
				Pid  int    `json:"pid"`
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		counters := map[string]int{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "C" {
				counters[strings.SplitN(ev.Name, ".", 2)[0]+"@"+strconv.Itoa(ev.Pid)]++
			}
		}
		if counters["job@2"] == 0 || counters["machine@1"] == 0 {
			t.Fatalf("%s: counter events by series and process: %v; want job.* on pid 2 and machine.* on pid 1", name, counters)
		}
	}
}
