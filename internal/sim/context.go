package sim

import "context"

// Context-style cancellation for long Runs. Run/RunUntil drain the queue
// unconditionally — fine for experiments that terminate, but a server-loop
// simulation (or a runaway one) runs forever. RunCtx/RunUntilCtx are the
// cancellable variants: they execute events exactly like RunUntil but poll
// the context between events, returning its error once it is done. The
// plain Run/RunUntil loops are untouched, so simulations that do not need
// cancellation pay nothing.
//
// Cancellation composes with Kill: RunUntilCtx only returns between events,
// i.e. on the engine side of the proc handoff, where Kill is legal — so
//
//	if err := eng.RunCtx(ctx); err != nil {
//		eng.Kill() // unwind parked procs, LiveProcs settles to 0
//	}
//
// is the standard teardown for a cancelled simulation. The engine state
// stays valid after a cancelled run; calling RunCtx again (with a live
// context) resumes exactly where it stopped, preserving determinism — the
// executed event sequence is independent of where cancellation struck.

// ctxPollEvents is how many events run between context polls: frequent
// enough that cancellation lands within microseconds of wall time, rare
// enough that the select stays invisible next to event execution.
const ctxPollEvents = 256

// RunCtx executes events until the queue is empty or ctx is done,
// returning nil in the former case and the context's error in the latter.
func (e *Engine) RunCtx(ctx context.Context) error {
	return e.RunUntilCtx(ctx, ^Time(0))
}

// RunUntilCtx executes events with timestamps <= t, advancing virtual
// time, until the queue is empty, the next event is beyond t (both return
// nil), or ctx is done (returns ctx.Err()). The context is checked before
// the first event, so an already-cancelled context executes nothing.
func (e *Engine) RunUntilCtx(ctx context.Context, t Time) error {
	budget := 0
	for {
		if budget == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			budget = ctxPollEvents
		}
		budget--
		if !e.next(t) {
			return nil
		}
	}
}
