package snapshot

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"complexobj/internal/store"
)

// Extract writes a new snapshot at dst holding only the selected kinds of
// src, in src's file order. Each entry keeps its header (a checkpoint's
// watermark included) with its kind set narrowed to the selected kinds,
// and its meta blob and arena are copied byte for byte from their offsets
// — the model data is never decoded, so splitting a paper-scale snapshot
// into per-shard segments costs one sequential read of the selected
// regions and nothing else. A base opened from the segment is
// bit-identical to one opened from the full snapshot (same arena bytes,
// same meta), which is what makes a shard handoff a file move + mmap
// rather than a reload.
//
// Every requested kind must be present in src; requesting none is an
// error (a snapshot holds at least one model).
func Extract(src, dst string, kinds []store.Kind) error {
	if len(kinds) == 0 {
		return fmt.Errorf("snapshot: extract of no models")
	}
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	info, entries, err := parse(f)
	if err != nil {
		return err
	}
	var want kindSet
	for _, k := range kinds {
		if want.has(k) {
			return fmt.Errorf("snapshot: extract: duplicate model %s", k)
		}
		want |= setOf(k)
	}
	var selected []entry
	var found kindSet
	for _, e := range entries {
		if e.kinds&want != 0 {
			e.kinds &= want
			selected = append(selected, e)
			found |= e.kinds
		}
	}
	for _, k := range kinds {
		if !found.has(k) {
			return fmt.Errorf("%w: %s in %s", ErrNoModel, k, filepath.Base(src))
		}
	}

	return writeContainer(dst, info.Gen, selected, func(i int, w io.Writer) error {
		e := selected[i]
		_, err := io.Copy(w, io.NewSectionReader(f, e.metaOff, e.span()))
		return err
	})
}
