package disk

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"complexobj/internal/iostat"
)

// backends lists the built-in backends for table-driven device tests.
// "cow" runs with a nil base (fully private overlay), the drop-in mode of
// the CLI spec syntax; shared-base behaviour is pinned in cow_test.go.
func backends(t *testing.T) map[string]func() Backend {
	t.Helper()
	dir := t.TempDir()
	n := 0
	return map[string]func() Backend{
		"mem": func() Backend { return NewMemBackend() },
		"file": func() Backend {
			n++
			b, err := OpenFileBackend(filepath.Join(dir, "arena"+string(rune('0'+n))))
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		"cow": func() Backend { return NewCOWBackend(nil, DefaultPageSize) },
	}
}

// TestBackendGrowZeroes asserts fresh arena bytes read as zero on every
// backend, the invariant Allocate's "fresh zeroed pages" contract rests on.
func TestBackendGrowZeroes(t *testing.T) {
	for name, open := range backends(t) {
		t.Run(name, func(t *testing.T) {
			b := open()
			defer b.Close()
			if err := b.Grow(4096); err != nil {
				t.Fatal(err)
			}
			if b.Len() != 4096 {
				t.Fatalf("Grow(4096) left Len %d", b.Len())
			}
			arena := bytes.Repeat([]byte{0xAA}, 4096) // dirty buffer: ReadAt must overwrite it
			if err := b.ReadAt(arena, 0); err != nil {
				t.Fatal(err)
			}
			for i, v := range arena {
				if v != 0 {
					t.Fatalf("fresh byte %d is %d, want 0", i, v)
				}
			}
			if err := b.WriteAt([]byte("mark"), 0); err != nil {
				t.Fatal(err)
			}
			if err := b.Grow(3 * DefaultExtentBytes / 2); err != nil { // force a remap past one extent
				t.Fatal(err)
			}
			head := make([]byte, 4)
			if err := b.ReadAt(head, 0); err != nil {
				t.Fatal(err)
			}
			if string(head) != "mark" {
				t.Fatalf("contents lost across grow: %q", head)
			}
			tail := bytes.Repeat([]byte{0xAA}, 4096)
			if err := b.ReadAt(tail, b.Len()-4096); err != nil {
				t.Fatal(err)
			}
			for i, v := range tail {
				if v != 0 {
					t.Fatalf("grown byte %d is %d, want 0", i, v)
				}
			}
		})
	}
}

// TestBackendRangeChecks asserts out-of-arena accesses fail on every
// backend instead of silently clipping.
func TestBackendRangeChecks(t *testing.T) {
	for name, open := range backends(t) {
		t.Run(name, func(t *testing.T) {
			b := open()
			defer b.Close()
			if err := b.Grow(1024); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 256)
			if err := b.ReadAt(buf, 1000); err == nil {
				t.Error("ReadAt past the arena succeeded")
			}
			if err := b.WriteAt(buf, 1000); err == nil {
				t.Error("WriteAt past the arena succeeded")
			}
			if err := b.ReadAt(buf, -1); err == nil {
				t.Error("ReadAt at negative offset succeeded")
			}
		})
	}
}

// TestFileBackendIsScratch pins that a file arena is never a persisted
// form: opening over an existing file starts empty instead of adopting
// its contents, and Close deletes the file.
func TestFileBackendIsScratch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arena.pages")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xEE}, 3*DefaultPageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OpenFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("arena over an existing file starts with %d bytes, want 0", b.Len())
	}
	d := NewWithBackend(DefaultPageSize, b)
	if id, err := d.Allocate(2); err != nil || id != 0 {
		t.Fatalf("first allocation at page %d, %v; want 0", id, err)
	}
	if got, err := readCopy(d, 0, 1); err != nil || !bytes.Equal(got[0], make([]byte, DefaultPageSize)) {
		t.Fatalf("fresh page not zeroed (old file contents adopted?): %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("arena file survived Close: %v", err)
	}
}

// TestFileBackendRemoveOnClose asserts anonymous arenas clean up.
func TestFileBackendRemoveOnClose(t *testing.T) {
	spec := BackendSpec{Kind: FileArena, Dir: t.TempDir()}
	b, err := spec.Open(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Grow(DefaultPageSize); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(spec.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("anonymous arena left %d files behind", len(left))
	}
}

// TestParseBackendSpec pins the CLI syntax.
func TestParseBackendSpec(t *testing.T) {
	cases := []struct {
		in   string
		want BackendSpec
		err  bool
	}{
		{in: "", want: BackendSpec{Kind: MemArena}},
		{in: "mem", want: BackendSpec{Kind: MemArena}},
		{in: "file", want: BackendSpec{Kind: FileArena}},
		{in: "file:/tmp/x", want: BackendSpec{Kind: FileArena, Dir: "/tmp/x"}},
		{in: "cow", want: BackendSpec{Kind: COWArena}},
		{in: "mmap", err: true},
	}
	for _, c := range cases {
		got, err := ParseBackendSpec(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseBackendSpec(%q): want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBackendSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBackendSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if got.String() != c.in && c.in != "" {
			t.Errorf("BackendSpec(%q).String() = %q", c.in, got.String())
		}
	}
}

// TestDiskRestoreDump round-trips a device through DumpTo/Restore across
// backend kinds and checks counters are untouched by both.
func TestDiskRestoreDump(t *testing.T) {
	src := New(512)
	if _, err := src.Allocate(5); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 512)
	copy(img, []byte("snapshot me"))
	if err := src.WriteRun(2, [][]byte{img}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.DumpTo(&buf); err != nil {
		t.Fatal(err)
	}

	for name, open := range backends(t) {
		t.Run(name, func(t *testing.T) {
			dst := NewWithBackend(512, open())
			defer dst.Close()
			if err := dst.Restore(bytes.NewReader(buf.Bytes()), 5); err != nil {
				t.Fatal(err)
			}
			if got := dst.Stats(); got != (iostat.Stats{}) {
				t.Fatalf("restore touched counters: %+v", got)
			}
			if dst.NumPages() != 5 {
				t.Fatalf("restored %d pages, want 5", dst.NumPages())
			}
			back, err := readCopy(dst, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back[0], img) {
				t.Fatal("restored page differs")
			}
			var dump bytes.Buffer
			if err := dst.DumpTo(&dump); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dump.Bytes(), buf.Bytes()) {
				t.Fatal("dump of restored device differs from original dump")
			}
		})
	}
}
