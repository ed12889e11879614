package serve

import "time"

// The engine clock. A shard does not wake every TickInterval: it arms one
// timer to the earliest instant anything can happen — the session's next
// event (sim.Session.NextEventHint), the WAL's interval-policy flush
// deadline, or a due checkpoint — and bursts every deferred tick when it
// fires. The session decides which tick can next change its state: an
// event-safe one (sim.Session.EventSafe; Scheduler S, EDF, FIFO) names its
// next arrival, expiry or completion bound and steps in event intervals, so
// a burst, a drain fast-forward or a recovery replay costs one step per
// event rather than per tick; any other (LLF, GP, NC) names the very next
// tick while work is live, so it steps tick by tick exactly as a fixed
// ticker would. Either way the session's evolution depends only on the
// sequence of (Arrive, AdvanceTo) operations and their clock values, never
// on how many wakeups delivered them. An idle shard arms nothing and
// burns zero CPU. Every mailbox message catches the session up to the
// current wall tick first, so release stamps and reads are as fresh as if
// the shard had ticked every interval.

// engineLoop is the goroutine that owns all of this shard's mutable state.
// With TickInterval < 0 there is no clock: the timer is never armed and the
// session moves only on explicit Advance and at drain.
func (sh *shard) engineLoop() {
	defer close(sh.engineDone)
	clocked := sh.srv.cfg.TickInterval > 0
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
		if !clocked || sh.quiesced {
			return // no clock, or it is done moving (finalize fast-forwards)
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
			if clocked && !sh.quiesced {
				// Catch up before touching observable state, so release
				// stamps and lookups are as fresh as the wall tick.
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

// jumpAdvance is the timer-fire body of the engine loop: burst the session
// up to the current wall tick (bit-identical to having ticked every
// interval), then run the WAL's interval flush and the checkpoint cadence.
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
