package dagsched

// Option mutates a SimConfig under construction; see NewConfig. The
// functional-option form composes setup for callers that configure runs
// programmatically (the serving daemon, examples); the SimConfig struct
// literal remains equally supported.
type Option func(*SimConfig)

// NewConfig builds a SimConfig from options. The zero configuration is a
// single processor at speed 1 with no horizon, recording, faults, or
// telemetry — override with WithM and friends.
func NewConfig(opts ...Option) SimConfig {
	cfg := SimConfig{M: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithM sets the number of identical processors (must be ≥ 1).
func WithM(m int) Option { return func(c *SimConfig) { c.M = m } }

// WithSpeed sets the exact rational speed-augmentation factor.
func WithSpeed(s Speed) Option { return func(c *SimConfig) { c.Speed = s } }

// WithPolicy sets the ready-node pick policy (default PickByID).
func WithPolicy(p PickPolicy) Option { return func(c *SimConfig) { c.Policy = p } }

// WithHorizon hard-stops the simulation at the given tick (0 = run to
// completion).
func WithHorizon(h int64) Option { return func(c *SimConfig) { c.Horizon = h } }

// WithRecording enables full trace capture in the Result (Gantt, verification).
func WithRecording() Option { return func(c *SimConfig) { c.Record = true } }

// WithFaults enables deterministic fault injection with the given
// configuration; see FaultsConfig and ParseFaultSpec.
func WithFaults(f FaultsConfig) Option {
	return func(c *SimConfig) { c.Faults = &f }
}

// WithRecorder attaches a telemetry recorder: the run's decision-event
// stream, registry counters, and probe samples land in it.
func WithRecorder(r *Recorder) Option { return func(c *SimConfig) { c.Telemetry = r } }

// WithRouteHook observes RunAuto's choice of stepping discipline (engine
// "tick" or "evented", and the reason) once per call. Run, RunEvented and
// sessions never invoke it.
func WithRouteHook(fn func(engine, reason string)) Option {
	return func(c *SimConfig) { c.OnRoute = fn }
}
