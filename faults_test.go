package complexobj

import (
	"context"
	"errors"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/faultdisk"
)

func TestParseFaultPlan(t *testing.T) {
	if p, err := ParseFaultPlan(""); p != nil || err != nil {
		t.Errorf("empty spec: plan %v, err %v (want nil, nil)", p, err)
	}
	if _, err := ParseFaultPlan("read=2"); err == nil {
		t.Error("out-of-range probability accepted")
	}
	p, err := ParseFaultPlan("seed=7,read=0.02,latency=0.05:2ms")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseFaultPlan(p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if again.String() != p.String() {
		t.Errorf("round trip: %q != %q", again.String(), p.String())
	}
	if p.Stats() != (FaultStats{}) {
		t.Errorf("fresh plan has non-zero stats: %+v", p.Stats())
	}
	var nilPlan *FaultPlan
	if nilPlan.String() != "" || nilPlan.Stats() != (FaultStats{}) {
		t.Error("nil plan is not inert")
	}
}

// TestTransientFaultsKeepResultsIdentical is the facade-level bit-identity
// pin: a database under a transient-read-only schedule returns exactly the
// measurements of a fault-free one, while the plan records the absorbed
// faults.
func TestTransientFaultsKeepResultsIdentical(t *testing.T) {
	gen := cobench.DefaultConfig().WithN(40)
	w := cobench.Workload{Loops: 10, Samples: 5, Seed: 1993}

	clean, err := OpenLoaded(DASDBSNSM, Options{BufferPages: 128}, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	plan, err := ParseFaultPlan("seed=3,read=0.05")
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := OpenLoaded(DASDBSNSM, Options{BufferPages: 128, Faults: plan}, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer faulted.Close()

	for _, q := range cobench.AllQueries() {
		want, err := clean.Run(q, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := faulted.Run(q, w)
		if err != nil {
			t.Fatalf("%s under transient reads: %v", q, err)
		}
		if !sameMeasurement(got, want) {
			t.Errorf("%s diverged under transient faults:\n got %+v\nwant %+v", q, got, want)
		}
	}
	if plan.Stats().ReadFaults == 0 {
		t.Error("schedule injected no read faults; the pin is vacuous")
	}
}

// TestPermanentFaultSurfacesStructured: a poisoned page fails the request
// with an error the server can classify for quarantine.
func TestPermanentFaultSurfacesStructured(t *testing.T) {
	plan, err := ParseFaultPlan("perm=1")
	if err != nil {
		t.Fatal(err)
	}
	gen := cobench.DefaultConfig().WithN(20)
	if _, err := OpenLoaded(DSM, Options{BufferPages: 64, Faults: plan}, gen); err == nil {
		t.Fatal("load over perm=1 succeeded")
	} else {
		if f := (*faultdisk.Fault)(nil); !errors.As(err, &f) {
			t.Errorf("%v is no injected fault", err)
		}
		if !IsPermanentFault(err) {
			t.Errorf("IsPermanentFault = false for %v", err)
		}
	}
	if IsPermanentFault(errors.New("plain")) {
		t.Error("plain errors classified as injected")
	}
}

// TestViewQuarantine: a quarantined view is destroyed on Close instead of
// recycled, the pool counts it, and the next request gets a fresh view.
func TestViewQuarantine(t *testing.T) {
	base, want, w := poolBaseline(t)
	pool, err := NewViewPool(base, Options{BufferPages: 256}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	v, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	v.Quarantine()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Quarantined != 1 || st.Destroyed != 1 || st.Idle != 0 {
		t.Errorf("after quarantine: %+v", st)
	}

	// The pool still serves correct, bit-identical requests afterwards.
	v2, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	res, err := v2.Run(cobench.Q1b, w)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMeasurement(res, want[cobench.Q1b]) {
		t.Error("post-quarantine view measured differently")
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
	st = pool.Stats()
	if st.Created != 2 {
		t.Errorf("Created = %d, want 2 (quarantined engine must not be reused)", st.Created)
	}
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
}

// TestRunContextCancel: RunContext with a dead context fails with the
// context error and a structured "interrupted" wrapper; a nil context
// never interrupts.
func TestRunContextCancel(t *testing.T) {
	base, want, w := poolBaseline(t)
	v, err := base.NewView(Options{BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := v.RunContext(ctx, cobench.Q1c, w); err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext(canceled) err = %v", err)
	}

	// The view survives the interruption and still measures identically
	// on the next (un-canceled) request after a reset of its state.
	res, err := v.RunContext(context.Background(), cobench.Q1c, w)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMeasurement(res, want[cobench.Q1c]) {
		t.Error("post-cancel run measured differently")
	}
}
