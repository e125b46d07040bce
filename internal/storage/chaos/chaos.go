// Package chaos is the deterministic fault-injection storage backend: a
// fault schedule run as the per-call hook of the store interposer
// (internal/storage/meter), firing at exact call numbers of that wrapper's
// own per-site counters. A chaos-wrapped store is therefore also metered,
// masks its traits down to the inner store's, and keeps the typed-column
// gather of stores that have it. The GRIN traits are errorless by design,
// so an injected error is *panicked* as a value implementing the
// ChaosInjected marker; the exec layer's stage recovery converts it back
// into an ordinary wrapped error — exactly the unwinding a failing
// remote-fragment RPC would take in the distributed deployment. Raw
// injected panics stay panics and surface as *exec.PanicError.
//
// Schedules are reproducible: Plan derives a whole fault schedule from a
// single seed with a splitmix64 stream, so any matrix failure replays from
// its logged seed.
package chaos

import (
	"fmt"
	"time"

	"repro/internal/grin"
	"repro/internal/query/obsv"
	"repro/internal/storage/meter"
)

// Kind is what happens when a fault fires.
type Kind uint8

const (
	// KindError panics with a permanent *Error; exec recovers it into a
	// wrapped error and the query fails cleanly.
	KindError Kind = iota
	// KindTransientError is KindError with Transient() = true, the retry
	// layer's signal that re-running the query may succeed.
	KindTransientError
	// KindPanic panics with a plain non-error value; exec converts it into a
	// *exec.PanicError — the isolation path.
	KindPanic
	// KindLatency sleeps Fault.Latency before the call proceeds, stretching
	// queries into their deadlines without corrupting results.
	KindLatency
	// KindShortRead halves ScanBatch's buffer so the store returns fewer
	// vertices than asked with a valid resume cursor — legal under the trait
	// contract, so results must remain row-for-row identical. Ignored at
	// other sites.
	KindShortRead
)

// String names the kind in errors and matrix logs.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindTransientError:
		return "transient"
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	case KindShortRead:
		return "shortread"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault fires Kind at the Nth call (1-based, counted atomically across all
// goroutines of the query) to Site. KindShortRead and KindLatency instead
// apply from the Nth call onward — a single stretched or shortened call
// rarely lands where the schedule intends, a persistent one always does.
type Fault struct {
	Site obsv.StoreSite
	Kind Kind
	// N is the triggering call number, 1-based. Zero means 1.
	N int64
	// Latency is the added delay for KindLatency.
	Latency time.Duration
}

// Options configures a wrapper.
type Options struct {
	// Seed labels the schedule for reproduction logs (Plan also derives
	// schedules from it). Seed itself has no effect on explicit Faults.
	Seed int64
	// Faults is the schedule.
	Faults []Fault
}

// Error is an injected fault in flight. It travels by panic through the
// errorless GRIN traits; exec's stage recovery detects ChaosInjected and
// rewraps it as an ordinary error.
type Error struct {
	Site obsv.StoreSite
	Kind Kind
	// N is the call number at which the fault fired.
	N int64
	// Seed is the schedule's seed, for replay.
	Seed int64
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("chaos: injected %s at %s call %d (seed %d)", e.Kind, e.Site, e.N, e.Seed)
}

// ChaosInjected marks the error as deliberately injected (the exec layer's
// structural test for rewrapping recovered panics as plain errors).
func (e *Error) ChaosInjected() bool { return true }

// Transient reports whether retrying the whole query may succeed — the
// retry layer's structural test.
func (e *Error) Transient() bool { return e.Kind == KindTransientError }

// Wrap builds a fault-injecting view of inner: a metered wrapper named
// chaos(inner) whose hook fires the schedule on the call numbers of the
// wrapper's own counters (read them back via Stats). The schedule is
// immutable after Wrap, so the view is safe for concurrent use to the same
// degree inner is.
func Wrap(inner grin.Graph, opt Options) *meter.Graph {
	var sched [obsv.NumStoreSites][]Fault
	for _, f := range opt.Faults {
		if f.N <= 0 {
			f.N = 1
		}
		sched[f.Site] = append(sched[f.Site], f)
	}
	hook := func(s obsv.StoreSite, n int64) (short bool) {
		for _, f := range sched[s] {
			persistent := f.Kind == KindLatency || f.Kind == KindShortRead
			if n != f.N && !(persistent && n > f.N) {
				continue
			}
			switch f.Kind {
			case KindError, KindTransientError:
				panic(&Error{Site: s, Kind: f.Kind, N: n, Seed: opt.Seed})
			case KindPanic:
				panic(fmt.Sprintf("chaos: injected panic at %s call %d (seed %d)", s, n, opt.Seed))
			case KindLatency:
				time.Sleep(f.Latency)
			case KindShortRead:
				short = true
			}
		}
		return short
	}
	return meter.Interpose(inner, nil, "chaos", hook)
}
