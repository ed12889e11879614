// Package telemetry is the zero-cost-when-disabled observability layer of
// the simulator: a structured, deterministic decision-event stream, a typed
// registry of counters/gauges/histograms, and optional per-tick probes that
// capture machine and per-job time series. The engine (internal/sim) and
// every scheduler emit into a Recorder when one is attached; with a nil
// Recorder the instrumented code paths reduce to a single pointer check.
//
// Determinism contract: every quantity recorded here derives from simulated
// ticks and scheduler decisions, never from wall-clock time, goroutine
// scheduling, or map iteration order. A run instrumented twice produces
// byte-identical event streams (EventsJSONL), and registries folded across
// runner cells aggregate commutatively, so parallel experiment grids report
// the same telemetry for any worker count.
package telemetry

import (
	"fmt"
	"io"
	"strconv"
)

// Kind classifies a decision event. Engine kinds are emitted by
// internal/sim; scheduler kinds by the algorithm implementations.
type Kind string

const (
	// KindArrival: a job was released into the system (engine).
	KindArrival Kind = "arrival"
	// KindDispatch: a job's processor grant changed to a new nonzero count
	// (engine; Procs carries the grant).
	KindDispatch Kind = "dispatch"
	// KindPreempt: a job that ran in the previous tick was paused while
	// unfinished (engine).
	KindPreempt Kind = "preempt"
	// KindComplete: a job finished all nodes; T is the completion time and
	// Value the profit earned (engine).
	KindComplete Kind = "complete"
	// KindDeadlineMiss: a job passed the last tick at which finishing could
	// earn profit and left the system (engine).
	KindDeadlineMiss Kind = "deadline_miss"
	// KindFaultBegin: a processor crashed (engine; Proc is the processor).
	KindFaultBegin Kind = "fault_begin"
	// KindFaultEnd: a crashed processor came back up (engine).
	KindFaultEnd Kind = "fault_end"
	// KindCapacity: the number of operational processors changed; Procs is
	// the new capacity (engine, fault-injected runs only).
	KindCapacity Kind = "capacity"
	// KindWorkLost: execution failures discarded a job's accumulated work;
	// Value is the work lost in declared units (engine).
	KindWorkLost Kind = "work_lost"

	// KindAdmit: the scheduler started a job (S: moved it into Q; Procs is
	// the allotment, Value the density).
	KindAdmit Kind = "admit"
	// KindPark: the scheduler deprioritized a job at arrival (S: parked in
	// P; Why names the failed admission test).
	KindPark Kind = "park"
	// KindReadmit: a previously parked job was admitted later (S: moved
	// from P to Q on a completion or capacity recovery).
	KindReadmit Kind = "readmit"
	// KindAbandon: the scheduler gave up on a live job (stale in P,
	// hopeless after work loss, evicted by a capacity drop, …).
	KindAbandon Kind = "abandon"
	// KindReject: the scheduler refused a job outright at arrival
	// (federated admission, GP with no valid deadline).
	KindReject Kind = "reject"
	// KindRegrow: the non-clairvoyant scheduler doubled a job's work guess;
	// Value is the new guess.
	KindRegrow Kind = "regrow"
	// KindSlotAssign: the general-profit scheduler assigned a job its slot
	// set; Value is the chosen relative deadline.
	KindSlotAssign Kind = "slot_assign"
)

// Event is one structured decision event. The zero Procs/Value/Why fields
// are omitted from the JSONL encoding; Job is -1 for machine-level events
// and Proc is -1 unless the event concerns one processor.
type Event struct {
	T     int64   // simulated tick of the decision
	Kind  Kind    // what happened
	Job   int     // job concerned, -1 for machine-level events
	Proc  int     // processor concerned, -1 unless processor-specific
	Procs int     // processor count (grant size, capacity), 0 when n/a
	Value float64 // kind-specific quantity (profit, density, lost work, …)
	Why   string  // annotation (admission test that failed, abandon reason)
}

// MachineEvent builds a machine-level event (no job, no processor).
func MachineEvent(t int64, kind Kind) Event {
	return Event{T: t, Kind: kind, Job: -1, Proc: -1}
}

// ProcEvent builds a processor-level event.
func ProcEvent(t int64, kind Kind, proc int) Event {
	return Event{T: t, Kind: kind, Job: -1, Proc: proc}
}

// JobEvent builds a job-level event.
func JobEvent(t int64, kind Kind, job int) Event {
	return Event{T: t, Kind: kind, Job: job, Proc: -1}
}

// appendJSON appends the event as one JSON object with a fixed field order,
// so encoding is byte-deterministic and allocation-light.
func (e Event) appendJSON(b []byte) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, e.T, 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind...)
	b = append(b, '"')
	if e.Job >= 0 {
		b = append(b, `,"job":`...)
		b = strconv.AppendInt(b, int64(e.Job), 10)
	}
	if e.Proc >= 0 {
		b = append(b, `,"proc":`...)
		b = strconv.AppendInt(b, int64(e.Proc), 10)
	}
	if e.Procs != 0 {
		b = append(b, `,"procs":`...)
		b = strconv.AppendInt(b, int64(e.Procs), 10)
	}
	if e.Value != 0 {
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, e.Value, 'g', -1, 64)
	}
	if e.Why != "" {
		b = append(b, `,"why":"`...)
		b = appendEscaped(b, e.Why)
		b = append(b, '"')
	}
	return append(b, '}')
}

// appendEscaped escapes the characters JSON strings cannot hold verbatim.
// Event annotations are short ASCII identifiers, so the fast path is a plain
// copy.
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, fmt.Sprintf(`\u%04x`, c)...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// Recorder collects one run's telemetry: the decision-event stream, the
// metric registry, and (when Probe is set) sampled time series. A Recorder
// is not safe for concurrent use; the engines drive it from their single
// simulation goroutine. All methods are nil-safe so instrumented code can
// hold a nil *Recorder at zero cost.
type Recorder struct {
	// Probe, when non-nil, samples per-tick machine (and optionally
	// per-job) time series. Set it before the run starts.
	Probe *Probe

	events []Event
	reg    Registry
}

// NewRecorder returns an empty recorder with no probe.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit appends a decision event and bumps its per-kind counter
// ("events.<kind>") in the registry.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.events = append(r.events, ev)
	r.reg.Inc("events."+string(ev.Kind), 1)
}

// Events returns the recorded event stream in emission order. The slice is
// owned by the recorder; callers must not mutate it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Registry returns the recorder's metric registry.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return &r.reg
}

// WriteEvents writes the stream as JSONL (one event object per line). The
// encoding is byte-deterministic: fixed field order, shortest float form.
func WriteEvents(w io.Writer, events []Event) error {
	_, err := w.Write(EventsJSONL(events))
	return err
}

// EventsJSONL renders the stream as JSONL bytes.
func EventsJSONL(events []Event) []byte {
	var b []byte
	for _, ev := range events {
		b = ev.appendJSON(b)
		b = append(b, '\n')
	}
	return b
}

// Instrumentable is implemented by schedulers that can emit decision events
// into a run's recorder. Attach wires one up when available.
type Instrumentable interface {
	SetTelemetry(*Recorder)
}

// Attach hands the recorder to x when it is Instrumentable and reports
// whether it was. A nil recorder detaches.
func Attach(x any, r *Recorder) bool {
	if in, ok := x.(Instrumentable); ok {
		in.SetTelemetry(r)
		return true
	}
	return false
}
