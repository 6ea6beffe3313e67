package driver

import (
	"fmt"
	"sync/atomic"
	"time"
)

// FaultKind classifies one injected fault.
type FaultKind uint8

const (
	// FaultNone leaves the execution untouched.
	FaultNone FaultKind = iota
	// FaultTransient fails one (batch, attempt) execution; a later
	// attempt of the same batch can succeed, which is what makes retries
	// worth having.
	FaultTransient
	// FaultPermanent fails every attempt of a batch — the "device is
	// gone" case no amount of retrying fixes.
	FaultPermanent
	// FaultStraggler delays an execution by the plan's StragglerDelay
	// without failing it — the slow-device case hedging exists for.
	FaultStraggler
)

// String names the kind for error messages and logs.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultTransient:
		return "transient"
	case FaultPermanent:
		return "permanent"
	case FaultStraggler:
		return "straggler"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultSpec sets a fault plan's injection rates. Rates are per batch
// execution and mutually exclusive per decision: a batch first draws its
// permanent fate (attempt-independent), then each attempt draws one of
// transient / straggler / clean.
type FaultSpec struct {
	// TransientRate is the probability an individual (batch, attempt)
	// execution fails with a retryable fault.
	TransientRate float64
	// PermanentRate is the probability a batch fails on every attempt.
	PermanentRate float64
	// StragglerRate is the probability an individual (batch, attempt)
	// execution runs normally and then returns StragglerDelay late.
	StragglerRate float64
	// StragglerDelay is the wall-clock delay of a straggler execution.
	StragglerDelay time.Duration
}

// FaultPlan injects deterministic, seeded faults at the ExecBatch
// boundary — the substrate for chaos testing the layers above. Decisions
// are a pure function of (seed, batch index, attempt), so a given plan
// injects exactly the same faults on every run and tests can predict
// counters exactly; a straggler computes, then waits on the clock its
// caller passes.
// Injection never changes any result that is delivered:
// a faulted execution either fails outright or runs late, and re-executed
// batches are bit-identical by the repository's determinism invariant —
// which is precisely why the engine's retry/hedge layer is sound.
//
// A plan is safe for concurrent use; its counters are plan-lifetime and
// shared by every BatchPlan it is installed in (Config.Faults).
type FaultPlan struct {
	seed int64
	spec FaultSpec

	transients, permanents, stragglers atomic.Int64
}

// NewFaultPlan returns a seeded fault plan. The zero spec injects
// nothing.
func NewFaultPlan(seed int64, spec FaultSpec) *FaultPlan {
	return &FaultPlan{seed: seed, spec: spec}
}

// Kind returns the plan's deterministic decision for one execution —
// pure, uncounted, side-effect free — so tests can replay the schedule a
// run will see and assert injected-fault counters exactly.
func (p *FaultPlan) Kind(batch, attempt int) FaultKind {
	if p == nil {
		return FaultNone
	}
	// Permanent fate is drawn per batch from its own stream so it holds
	// across attempts (retrying a dead batch must keep failing).
	if p.spec.PermanentRate > 0 &&
		unitFloat(faultHash(p.seed, batch, -1)) < p.spec.PermanentRate {
		return FaultPermanent
	}
	u := unitFloat(faultHash(p.seed, batch, attempt))
	switch {
	case u < p.spec.TransientRate:
		return FaultTransient
	case u < p.spec.TransientRate+p.spec.StragglerRate:
		return FaultStraggler
	}
	return FaultNone
}

// inject applies the plan's decision to one execution and counts it: it
// returns the injected error for a failure and, for a straggler, the delay
// its caller waits out once the execution has computed, so a straggler
// returns late without holding back the compute itself. A nil plan
// injects nothing.
func (p *FaultPlan) inject(batch, attempt int) (time.Duration, error) {
	switch p.Kind(batch, attempt) {
	case FaultTransient:
		p.transients.Add(1)
		return 0, &FaultError{Batch: batch, Attempt: attempt, Kind: FaultTransient}
	case FaultPermanent:
		p.permanents.Add(1)
		return 0, &FaultError{Batch: batch, Attempt: attempt, Kind: FaultPermanent}
	case FaultStraggler:
		p.stragglers.Add(1)
		return p.spec.StragglerDelay, nil
	}
	return 0, nil
}

// Injected returns the plan-lifetime injection counters: transient and
// permanent failures raised, and straggler delays served.
func (p *FaultPlan) Injected() (transient, permanent, straggler int64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.transients.Load(), p.permanents.Load(), p.stragglers.Load()
}

// InjectedTotal sums all injections (Engine.Stats.FaultsInjected).
func (p *FaultPlan) InjectedTotal() int64 {
	t, pm, s := p.Injected()
	return t + pm + s
}

// FaultError is the error an installed FaultPlan raises for a failed
// batch execution. Callers classify it with errors.As and Transient to
// decide between retrying and degrading.
type FaultError struct {
	// Batch and Attempt identify the failed execution.
	Batch, Attempt int
	// Kind is FaultTransient or FaultPermanent.
	Kind FaultKind
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("driver: injected %s fault (batch %d, attempt %d)",
		e.Kind, e.Batch, e.Attempt)
}

// Transient reports whether a later attempt of the same batch can
// succeed.
func (e *FaultError) Transient() bool { return e.Kind == FaultTransient }

// faultHash mixes (seed, batch, attempt) into one 64-bit draw
// (splitmix64-style finalization over distinct odd-constant streams).
func faultHash(seed int64, batch, attempt int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 +
		uint64(int64(batch))*0xbf58476d1ce4e5b9 +
		uint64(int64(attempt))*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unitFloat maps a 64-bit draw to [0, 1).
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }
