// Package live implements the runtime seam on real infrastructure: wall
// clock timers, one OS process per replica, and a wire-codec TCP fabric on
// which mobile agents migrate as serialized wire state.
//
// The protocol packages are written for a single-threaded execution
// context — the discrete-event simulator runs every callback on one
// goroutine, and the code carries no locks. The live engine preserves that
// contract with an actor loop: all protocol callbacks (timer fires, message
// deliveries, client submits) are injected into one goroutine and run
// there, one at a time. Concurrency lives at the edges (socket readers and
// writers, the wall-clock timer wheel), never inside protocol state.
package live

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/runtime"
)

var _ runtime.Engine = (*Engine)(nil)

// Engine is the live implementation of runtime.Engine. Create one per
// process with NewEngine and stop it with Close.
type Engine struct {
	start time.Time
	rng   *rand.Rand // guarded by the loop: only touched from loop callbacks
	inbox chan func()
	quit  chan struct{}
	once  sync.Once
}

// NewEngine starts the engine's actor loop. The seed feeds the protocol's
// random source; unlike the simulator, equal seeds do not make live runs
// identical (the wall clock and the network interleave for real).
func NewEngine(seed int64) *Engine {
	e := &Engine{
		start: time.Now(),
		rng:   rand.New(rand.NewSource(seed)),
		inbox: make(chan func(), 1024),
		quit:  make(chan struct{}),
	}
	go e.loop()
	return e
}

func (e *Engine) loop() {
	for {
		select {
		case fn := <-e.inbox:
			fn()
		case <-e.quit:
			return
		}
	}
}

// Inject schedules fn to run on the engine's execution context. It is safe
// from any goroutine and never blocks forever: after Close the function is
// silently discarded.
func (e *Engine) Inject(fn func()) {
	select {
	case e.inbox <- fn:
	case <-e.quit:
	}
}

// Do runs fn on the engine's execution context and waits for it to finish.
// It reports false when the engine closed before fn could run.
func (e *Engine) Do(fn func()) bool {
	done := make(chan struct{})
	e.Inject(func() {
		defer close(done)
		fn()
	})
	select {
	case <-done:
		return true
	case <-e.quit:
		return false
	}
}

// Close stops the actor loop. Idempotent.
func (e *Engine) Close() { e.once.Do(func() { close(e.quit) }) }

// Now returns wall-clock time since the engine started.
func (e *Engine) Now() runtime.Time { return runtime.Time(time.Since(e.start)) }

// Rand returns the engine's seeded random source. It must only be used
// from loop callbacks, which is exactly how protocol code reaches it.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// AfterFunc schedules fn on the actor loop d from now.
func (e *Engine) AfterFunc(d time.Duration, fn func()) runtime.Timer {
	if d < 0 {
		d = 0
	}
	lt := &liveTimer{}
	lt.t = time.AfterFunc(d, func() {
		lt.mu.Lock()
		lt.fired = true
		lt.mu.Unlock()
		e.Inject(fn)
	})
	return runtime.MakeTimer(lt)
}

// Sleep blocks the caller for d of wall-clock time while the actor loop
// keeps running — the live counterpart of advancing virtual time.
func (e *Engine) Sleep(d time.Duration) { time.Sleep(d) }

// Wait polls done() on the actor loop until it reports true or the time
// budget elapses (runtime.ErrDeadline). A live engine never stalls: the
// wall clock always advances, so runtime.ErrStalled is returned only when
// the engine is closed underneath the wait.
func (e *Engine) Wait(d time.Duration, done func() bool) error {
	start := time.Now()
	deadline := start.Add(d)
	for {
		var ok bool
		if !e.Do(func() { ok = done() }) {
			return runtime.ErrStalled
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return runtime.ErrDeadline
		}
		// Poll finely at first and back off as the wait drags on: the
		// interval tracks 1/64 of the elapsed wait (200µs floor, 5ms
		// ceiling), so the overshoot past done() stays ~2% of the
		// workload's makespan whether it runs for milliseconds or
		// minutes. A fixed coarse tick was a measurable makespan tail
		// for the sub-100ms A9 cells.
		iv := time.Since(start) / 64
		if iv < 200*time.Microsecond {
			iv = 200 * time.Microsecond
		} else if iv > 5*time.Millisecond {
			iv = 5 * time.Millisecond
		}
		time.Sleep(iv)
	}
}

// liveTimer adapts time.Timer to runtime.TimerHandle. The mutex makes
// Active/Cancel safe against the timer goroutine marking the fire.
type liveTimer struct {
	mu    sync.Mutex
	t     *time.Timer
	fired bool
}

func (lt *liveTimer) Active() bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return !lt.fired && lt.t != nil
}

func (lt *liveTimer) Cancel() bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.fired || lt.t == nil {
		return false
	}
	stopped := lt.t.Stop()
	lt.t = nil
	return stopped
}
