package experiments

import (
	"reflect"
	"testing"

	"complexobj/cobench"
)

// smallConfig is a reduced-scale configuration that keeps the determinism
// tests fast while still exercising every model × query cell, including the
// update queries whose write-back paths are the most scheduling-sensitive.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Gen = cobench.DefaultConfig().WithN(150)
	cfg.Workload = cobench.Workload{Loops: 40, Samples: 8, Seed: 1993}
	cfg.BufferPages = 300
	return cfg
}

// TestMatrixParallelDeterminism asserts the matrix does not depend on the
// fan-out width: any worker count produces measurements byte-identical
// to width 1, because every cell owns its view and every query starts
// from a cold cache with reset counters.
func TestMatrixParallelDeterminism(t *testing.T) {
	serialCfg := smallConfig()
	serialCfg.Workers = 1
	serialSuite := New(serialCfg)
	defer serialSuite.Close()
	serial, err := serialSuite.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		cfg := smallConfig()
		cfg.Workers = workers
		parSuite := New(cfg)
		parallel, err := parSuite.Matrix()
		parSuite.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(parallel.Rows) != len(serial.Rows) {
			t.Fatalf("workers=%d: %d rows, serial has %d", workers, len(parallel.Rows), len(serial.Rows))
		}
		for i := range serial.Rows {
			if !reflect.DeepEqual(parallel.Rows[i], serial.Rows[i]) {
				t.Errorf("workers=%d row %d differs:\nparallel: %+v\nserial:   %+v",
					workers, i, parallel.Rows[i], serial.Rows[i])
			}
		}
	}
}

// TestMatrixParallelTableBytes renders Tables 4-6 from a width-1 and a
// width-8 suite and compares the emitted text byte for byte — the form in
// which cotables publishes the reproduction.
func TestMatrixParallelTableBytes(t *testing.T) {
	serialCfg := smallConfig()
	serialCfg.Workers = 1
	serialSuite := New(serialCfg)
	defer serialSuite.Close()
	ms, err := serialSuite.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	parCfg := smallConfig()
	parCfg.Workers = 8
	parSuite := New(parCfg)
	defer parSuite.Close()
	mp, err := parSuite.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name             string
		serial, parallel string
	}{
		{"table4", ms.Table4().Text(), mp.Table4().Text()},
		{"table5", ms.Table5().Text(), mp.Table5().Text()},
		{"table6", ms.Table6().Text(), mp.Table6().Text()},
	}
	for _, p := range pairs {
		if p.serial != p.parallel {
			t.Errorf("%s differs between serial and parallel run:\n--- serial ---\n%s\n--- parallel ---\n%s",
				p.name, p.serial, p.parallel)
		}
	}
}

// TestMatrixRowOrder asserts the paper's row ordering survives the
// parallel scheduling: models in AllKinds order, each with its seven
// queries in benchmark order.
func TestMatrixRowOrder(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 8
	s := New(cfg)
	defer s.Close()
	m, err := s.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	wantModels := []string{"DSM", "DASDBS-DSM", "NSM", "NSM+index", "DASDBS-NSM"}
	wantQueries := []string{"1a", "1b", "1c", "2a", "2b", "3a", "3b"}
	if len(m.Rows) != len(wantModels)*len(wantQueries) {
		t.Fatalf("got %d rows", len(m.Rows))
	}
	for i, r := range m.Rows {
		if r.Model != wantModels[i/len(wantQueries)] || r.Query != wantQueries[i%len(wantQueries)] {
			t.Errorf("row %d = (%s, %s), want (%s, %s)", i, r.Model, r.Query,
				wantModels[i/len(wantQueries)], wantQueries[i%len(wantQueries)])
		}
	}
}
