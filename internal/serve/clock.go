package serve

import (
	"fmt"
	"time"

	"dagsched/internal/sim"
)

// The event-jump clock. The ticker engine loop wakes every TickInterval to
// advance its session even when nothing can happen — an idle daemon at the
// 10ms default burns 100 wakeups/sec per shard doing nothing. When a shard's
// (scheduler, policy, faults, probe) combination is event-safe under the
// sim.RunAuto routing rules, the session's evolution depends only on the
// sequence of (Arrive, AdvanceTo) operations and their clock values, never
// on how many wakeups delivered them. The jump loop exploits that: instead
// of a ticker it arms one timer to the earliest instant anything can happen
// — the session's next event (sim.Session.NextEventHint), the WAL's
// interval-policy flush deadline, or a due checkpoint — and bursts every
// deferred tick when it fires. Such a session also steps in event intervals
// (sim.Session.EventSafe), so a burst, a drain fast-forward or a recovery
// replay costs one step per event rather than per tick. An idle shard arms nothing and burns zero
// CPU; a busy one advances exactly when state can change. Every mailbox
// message catches the session up to the current wall tick first, so release
// stamps and read freshness match the ticker loop and the two disciplines
// stay bit-identical for the same submission sequence.

// ClockMode selects the engine clock discipline (Config.Clock).
type ClockMode string

const (
	// ClockAuto: event-jump when the session is event-safe, ticker
	// otherwise. The default.
	ClockAuto ClockMode = "auto"
	// ClockTicker: always the fixed wall-clock ticker.
	ClockTicker ClockMode = "ticker"
	// ClockJump: require event-jump; New refuses configurations that are
	// not event-safe rather than silently falling back.
	ClockJump ClockMode = "jump"
)

// ParseClockMode parses the -clock flag value.
func ParseClockMode(s string) (ClockMode, error) {
	switch ClockMode(s) {
	case ClockAuto, ClockTicker, ClockJump:
		return ClockMode(s), nil
	case "":
		return ClockAuto, nil
	}
	return "", fmt.Errorf("serve: unknown clock mode %q (want auto, ticker, or jump)", s)
}

// resolveClock decides whether a shard runs the event-jump loop. Only
// meaningful with the ticker enabled; a negative TickInterval has no clock
// at all (sessions advance on drain or explicit Advance).
func resolveClock(cfg Config, sess *sim.Session) (jump bool, err error) {
	switch cfg.Clock {
	case ClockTicker:
		return false, nil
	case ClockJump:
		if !sess.EventSafe() {
			return false, fmt.Errorf("serve: clock mode %q requires an event-safe scheduler configuration (sched %q is not)", ClockJump, cfg.Sched)
		}
		return true, nil
	default: // ClockAuto
		return sess.EventSafe(), nil
	}
}

// engineLoopJump is the event-jump variant of engineLoop: same mailbox
// handling, but the per-tick ticker is replaced by a timer armed to the next
// instant this shard has anything to do. Idle shards leave the timer unarmed.
func (sh *shard) engineLoopJump() {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	armed := false
	rearm := func() {
		if armed {
			if !timer.Stop() {
				// Fired while we were handling a message; drain the stale
				// value so Reset arms cleanly. Non-blocking: under the
				// unbuffered timer semantics Stop already guarantees an
				// empty channel.
				select {
				case <-timer.C:
				default:
				}
			}
			armed = false
		}
		if sh.quiesced {
			return // the clock is done moving; finalize fast-forwards
		}
		if at, ok := sh.nextWake(); ok {
			timer.Reset(time.Until(at))
			armed = true
		}
	}
	rearm()
	for {
		select {
		case m := <-sh.reqs:
			if !sh.quiesced {
				// Catch up before touching observable state, so release
				// stamps and lookups are as fresh as the ticker loop's.
				sh.catchUp()
			}
			if sh.handle(m) {
				return
			}
			rearm()
		case <-timer.C:
			armed = false
			if sh.quiesced {
				continue
			}
			sh.jumpAdvance()
			rearm()
		}
	}
}

// nextWake computes the earliest wall-clock instant this shard must wake
// itself: the wall time of the tick after the session's next event hint
// (tick h is simulatable once the wall tick reaches h+1), the WAL's
// interval-policy flush deadline, or the next due checkpoint. ok=false
// means the shard may sleep until the next mailbox message.
func (sh *shard) nextWake() (time.Time, bool) {
	var (
		at time.Time
		ok bool
	)
	add := func(t time.Time) {
		if !ok || t.Before(at) {
			at, ok = t, true
		}
	}
	if hint, hok := sh.sess.NextEventHint(); hok {
		add(sh.srv.start.Add(time.Duration(hint+1) * sh.srv.cfg.TickInterval))
	}
	if sh.wal != nil {
		if d, dok := sh.wal.syncDeadline(); dok {
			add(d)
		}
		if sh.ckptDirty && sh.srv.cfg.CheckpointInterval >= 0 && sh.srv.degraded.Load() == nil {
			add(sh.lastCheckpoint.Add(sh.srv.cfg.CheckpointInterval))
		}
	}
	return at, ok
}

// jumpAdvance is the timer-fire body of the jump loop: burst the session up
// to the current wall tick (bit-identical to having ticked every interval),
// then run the same WAL flush and checkpoint cadence the ticker loop
// piggybacks on its ticks.
func (sh *shard) jumpAdvance() {
	before := sh.sess.Now()
	sh.catchUp()
	if sh.obsReg != nil {
		sh.obsReg.Inc("serve.clock_jumps", 1)
		sh.obsReg.Observe("serve.clock_jump_ticks", float64(sh.sess.Now()-before))
	}
	if sh.wal != nil {
		now := time.Now()
		if err := sh.wal.maybeSync(now); err != nil {
			sh.degrade("wal sync", err)
		}
		sh.maybeCheckpoint(now)
	}
}

// catchUp advances the session to the current wall tick.
func (sh *shard) catchUp() {
	sh.advance(int64(time.Since(sh.srv.start) / sh.srv.cfg.TickInterval))
}
