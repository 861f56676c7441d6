package complexobj

import (
	"errors"

	"complexobj/internal/faultdisk"
)

// FaultPlan is a seeded fault-injection schedule for the simulated
// device: transient and permanent I/O errors, added latency, short reads
// and torn writes, injected below the device's accounting so that the
// counters of successful operations stay bit-identical to a fault-free
// run. One plan is shared by every engine opened with it (Options.Faults)
// and accumulates the injected-fault counters across all of them; a nil
// *FaultPlan injects nothing.
type FaultPlan struct {
	inj *faultdisk.Injector
}

// ParseFaultPlan builds a plan from the textual schedule grammar — a
// comma-separated list of key=value clauses:
//
//	seed=N        schedule seed (default 0)
//	read=P        transient read-error probability
//	write=P       transient write-error probability
//	grow=P        transient grow-error probability
//	perm=P        permanent page-poisoning probability
//	short=P       short-read probability
//	torn=P        torn-write probability
//	panic=P       backend-panic probability
//	latency=[P:]D injected delay D (Go duration) with probability P (default 1)
//	pages=A[-[B]] restrict injection to pages A..B (inclusive)
//
// with every probability in [0, 1], e.g. "seed=7,read=0.02,latency=0.05:2ms".
// An empty spec returns a nil plan (inject nothing).
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	if spec == "" {
		return nil, nil
	}
	s, err := faultdisk.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return &FaultPlan{inj: faultdisk.New(s)}, nil
}

// String renders the plan's schedule back in ParseFaultPlan grammar
// (empty for a nil plan).
func (p *FaultPlan) String() string {
	if p == nil {
		return ""
	}
	return p.inj.Spec().String()
}

// injector returns the internal injector threaded into store options
// (nil-safe).
func (p *FaultPlan) injector() *faultdisk.Injector {
	if p == nil {
		return nil
	}
	return p.inj
}

// FaultStats counts what a plan has injected so far, summed over every
// engine sharing it — the injector's own counter set. Delays count
// injected latency sleeps; everything else counts injected failures
// (Injected sums those).
type FaultStats = faultdisk.Counters

// Stats snapshots the plan's injected-fault counters (zero for a nil
// plan). Safe to call concurrently with serving.
func (p *FaultPlan) Stats() FaultStats {
	if p == nil {
		return FaultStats{}
	}
	return p.inj.Counters()
}

// IsPermanentFault reports whether err is an injected fault that marks
// its page permanently poisoned: retrying through the same engine can
// never succeed, so callers should retire the engine (the server
// quarantines the view) instead of recycling it.
func IsPermanentFault(err error) bool {
	var f *faultdisk.Fault
	return errors.As(err, &f) && !f.Transient()
}
