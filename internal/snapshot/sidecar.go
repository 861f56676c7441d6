package snapshot

import (
	"fmt"
	"io"
	"path/filepath"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/store"
)

// A checkpoint is a single-model snapshot with a watermark: the durable
// commit path keeps each served model in dir/<slug>.codb, an ordinary
// container whose one entry holds that one kind and records the
// write-ahead-log sequence the arena includes. Replacing it is one atomic
// rename, and every .codb consumer can open it.

// SidecarInfo describes a model's checkpoint file.
type SidecarInfo struct {
	Kind     store.Kind
	PageSize int
	NumPages int
	// Seq is the last acknowledged WAL commit sequence captured by the
	// checkpoint that wrote the file (0 for a fresh seed): restored into
	// the reopened log so sequence numbers stay monotonic.
	Seq uint64
	// Gen is the base generation at checkpoint time, as numbered by the
	// process that wrote it (diagnostics only; a restart renumbers
	// generations from the recovered state).
	Gen uint64
}

// sidecarInfo describes e as the checkpoint of k.
func (e entry) sidecarInfo(k store.Kind) SidecarInfo {
	return SidecarInfo{Kind: k, PageSize: e.pageSize, NumPages: e.numPages, Seq: e.seq, Gen: e.gen}
}

// Slug returns the file-name slug of a storage model (the short aliases
// the CLI accepts: dsm, ddsm, nsm, nsmx, dnsm).
func Slug(k store.Kind) string {
	switch k {
	case store.DSM:
		return "dsm"
	case store.DASDBSDSM:
		return "ddsm"
	case store.NSM:
		return "nsm"
	case store.NSMIndex:
		return "nsmx"
	case store.DASDBSNSM:
		return "dnsm"
	default:
		return fmt.Sprintf("kind%d", byte(k))
	}
}

// sidecarPath returns the checkpoint file of a model in dir.
func sidecarPath(dir string, k store.Kind) string {
	return filepath.Join(dir, Slug(k)+".codb")
}

// WriteSidecar persists the base's current generation into dir as the
// model's checkpoint file, recording seq as the WAL watermark the arena
// includes. The generation is streamed, never flattened in memory: runs of
// pages still on the floor go out as single writes, committed pages one
// each. The generator configuration is provenance the base does not
// carry; checkpoints store the zero config.
func WriteSidecar(dir string, b *store.SharedBase, seq uint64) error {
	gen, numPages, meta, arena := b.SnapshotState()
	defer arena.Release()
	e := entry{kinds: setOf(b.Kind()), pageSize: b.PageSize(), numPages: numPages, seq: seq, gen: gen, metaLen: len(meta)}
	return writeContainer(sidecarPath(dir, b.Kind()), cobench.Config{}, []entry{e}, func(_ int, w io.Writer) error {
		if _, err := w.Write(meta); err != nil {
			return err
		}
		_, err := arena.WriteTo(w)
		return err
	})
}

// StatSidecar describes a model's checkpoint in dir without restoring
// anything. os.IsNotExist on the returned error distinguishes "never
// checkpointed" from corruption.
func StatSidecar(dir string, k store.Kind) (SidecarInfo, error) {
	path := sidecarPath(dir, k)
	f, entries, err := openParsed(path)
	if err != nil {
		return SidecarInfo{}, err
	}
	f.Close()
	j, err := holding(entries, k, path)
	if err != nil {
		return SidecarInfo{}, err
	}
	return entries[j].sidecarInfo(k), nil
}

// OpenSidecarBase lifts a model's checkpoint in dir into a SharedBase
// (OpenBase on dir/<slug>.codb, same contract). Returns the checkpoint
// info alongside so the caller can restore the WAL watermark.
func OpenSidecarBase(dir string, k store.Kind) (*store.SharedBase, SidecarInfo, error) {
	bases, held, err := openBases(sidecarPath(dir, k), []store.Kind{k}, disk.CanMapBase)
	if err != nil {
		return nil, SidecarInfo{}, err
	}
	return bases[0], held[0].sidecarInfo(k), nil
}
