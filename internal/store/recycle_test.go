package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"complexobj/cobench"
)

// scanClones reads every object through v with a cold cache and returns
// owned copies.
func scanClones(v *View) ([]*cobench.Station, error) {
	if err := v.Engine().ColdCache(); err != nil {
		return nil, err
	}
	var out []*cobench.Station
	err := v.ScanAll(func(_ int, s *cobench.Station) error {
		out = append(out, s.Clone())
		return nil
	})
	return out, err
}

// sameObjects reports the first object of got that differs from want.
func sameObjects(got, want []*cobench.Station) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d objects, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("object %d reads %q, want %q", i, got[i].Name, want[i].Name)
		}
	}
	return nil
}

// TestRecyclingUnderConcurrentViews is recycling's race fence: one writer
// commits and rebases while readers open views, read, rebase and close,
// and a checkpointer streams retained generations with WriteTo. A reader
// must read the same objects twice within one lease, whatever commits in
// between; two WriteTo of one retained generation must agree. Under
// -race a promote that writes an image a live generation can still read is
// a reported race besides.
func TestRecyclingUnderConcurrentViews(t *testing.T) {
	stations := testExtension(t, 60)
	m := loadModel(t, DSM, stations)
	base, err := Freeze(m)
	m.Engine().Close()
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()

	const commits = 150
	done := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		v, err := base.NewView(Options{BufferPages: 64})
		if err != nil {
			errs <- err
			return
		}
		defer v.Close()
		for i := 0; i < commits; i++ {
			name := fmt.Sprintf("writer %04d", i)
			if err := v.UpdateRoots([]int32{int32(i % 60), int32(i * 7 % 60)}, func(_ int32, r *cobench.RootRecord) { r.Name = name }); err != nil {
				errs <- err
				return
			}
			if _, err := v.Commit(nil); err != nil {
				errs <- err
				return
			}
			if err := v.Rebase(); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v, err := base.NewView(Options{BufferPages: 8})
				if err != nil {
					errs <- err
					return
				}
				for step := 0; step < 2; step++ {
					first, err := scanClones(v)
					if err == nil {
						var again []*cobench.Station
						if again, err = scanClones(v); err == nil {
							err = sameObjects(again, first)
						}
					}
					if err == nil && step == 0 {
						err = v.Rebase()
					}
					if err != nil {
						errs <- fmt.Errorf("view at generation %d: %w", v.Gen(), err)
						v.Close()
						return
					}
				}
				if err := v.Close(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			gen, _, _, arena := base.SnapshotState()
			var a, b bytes.Buffer
			_, err := arena.WriteTo(&a)
			if err == nil {
				_, err = arena.WriteTo(&b)
			}
			arena.Release()
			if err == nil && !bytes.Equal(a.Bytes(), b.Bytes()) {
				err = fmt.Errorf("generation %d streamed two different arenas", gen)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if base.Gen() != commits {
		t.Fatalf("base at generation %d after %d commits", base.Gen(), commits)
	}
}
