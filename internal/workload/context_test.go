package workload

import (
	"context"
	"errors"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/store"
)

// TestRunInterruptedByContext: a canceled context stops every query with
// a structured error wrapping the context's, and an interrupted run
// reports no counters at all (never a truncated measurement).
func TestRunInterruptedByContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := loadedRunner(t, store.DSM, 60)
	r.Arm(ctx, r.w)
	for _, q := range cobench.AllQueries() {
		_, err := r.Run(q)
		if err == nil {
			t.Errorf("%s ran to completion under a canceled context", q)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not wrap context.Canceled", q, err)
		}
	}
}

// TestRunWithBackgroundContext: an un-canceled context changes nothing —
// the run completes with the same counters as a context-free one.
func TestRunWithBackgroundContext(t *testing.T) {
	plain := loadedRunner(t, store.DASDBSNSM, 60)
	want, err := plain.Run(cobench.Q1c)
	if err != nil {
		t.Fatal(err)
	}
	bounded := loadedRunner(t, store.DASDBSNSM, 60)
	bounded.Arm(context.Background(), bounded.w)
	got, err := bounded.Run(cobench.Q1c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Errorf("counters diverged under a background context:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
}

// TestRunCancelMidScan cancels during the scan callback and checks the
// run stops promptly with the context error instead of finishing.
func TestRunCancelMidScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := loadedRunner(t, store.NSM, 60)
	r.Arm(ctx, r.w)
	cancel()
	if _, err := r.Run(cobench.Q1c); err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("mid-scan cancel: err = %v", err)
	}
}
