package serve

import "time"

// The shard lock and the engine clock. A shard runs no goroutine of its own:
// every caller — a submission, a lookup, a stats read, Advance, Checkpoint,
// the drain, the clock's timer — runs the shard's code on its own goroutine
// between lock and unlock, and sh.mu is the one point that serializes them.
// Scheduler S's guarantee depends only on the order of arrivals and ticks its
// session sees, and the WAL holds every verdict before unlock lets it out,
// so one mutex is all the ordering needs.
//
// A shard does not wake every TickInterval: unlock arms one timer to the
// earliest instant anything can happen — the session's next event
// (sim.Session.NextEventHint), the WAL's interval-policy flush deadline, or
// a due checkpoint — and the timer's callback takes the lock and bursts
// every deferred tick. The session decides which tick can next change its
// state: an event-safe one (sim.Session.EventSafe; Scheduler S, EDF, FIFO)
// names its next arrival, expiry or completion bound and steps in event
// intervals, so a burst, a drain fast-forward or a recovery replay costs one
// step per event rather than per tick; any other (LLF, GP, NC) names the
// very next tick while work is live, so it steps tick by tick exactly as a
// fixed ticker would. Either way the session's evolution depends only on the
// sequence of (Arrive, AdvanceTo) operations and their clock values, never
// on how many wakeups delivered them. An idle shard arms nothing and burns
// zero CPU. lock catches the session up to the current wall tick first, so
// release stamps and reads are as fresh as if the shard had ticked every
// interval. With TickInterval < 0 there is no clock: the timer is never
// armed and the session moves only on explicit Advance and at drain.

// lock takes the shard for one caller and, when the shard is clocked and not
// quiesced, catches its session up to the wall tick.
func (sh *shard) lock() {
	sh.mu.Lock()
	if sh.srv.cfg.TickInterval > 0 && !sh.quiesced {
		sh.catchUp()
	}
}

// unlock re-arms the engine clock from nextWake and releases the shard.
func (sh *shard) unlock() {
	sh.rearm()
	sh.mu.Unlock()
}

// rearm points the shard's timer at nextWake, or disarms it when the shard
// has no clock, has quiesced (finalize fast-forwards), or has nothing due.
func (sh *shard) rearm() {
	sh.wake = time.Time{}
	if sh.srv.cfg.TickInterval > 0 && !sh.quiesced {
		sh.wake, _ = sh.nextWake()
	}
	switch {
	case sh.wake.IsZero():
		if sh.timer != nil {
			sh.timer.Stop()
		}
	case sh.timer == nil:
		sh.timer = time.AfterFunc(time.Until(sh.wake), sh.tick)
	default:
		sh.timer.Reset(time.Until(sh.wake))
	}
}

// tick is the timer's callback. One that fired while another caller held the
// lock finds the wake that caller re-armed: moved later, or disarmed, it has
// nothing to do and leaves, so serve_clock_jumps_total counts real wakeups
// only. (Running anyway would be harmless: catching up and the cadence
// checks are idempotent.)
func (sh *shard) tick() {
	sh.mu.Lock()
	if sh.quiesced || sh.wake.IsZero() || time.Now().Before(sh.wake) {
		sh.mu.Unlock()
		return
	}
	sh.jumpAdvance()
	sh.unlock()
}

// nextWake computes the earliest wall-clock instant this shard must wake
// itself: the wall time of the tick after the session's next event hint
// (tick h is simulatable once the wall tick reaches h+1), the WAL's
// interval-policy flush deadline, or the next due checkpoint. ok=false
// means the shard may sleep until its next caller.
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

// jumpAdvance is the timer's work: burst the session up to the current wall
// tick (bit-identical to having ticked every interval), then run the WAL's
// interval flush and the checkpoint cadence.
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
