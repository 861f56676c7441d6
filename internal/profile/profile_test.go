package profile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

// parsePprof checks that path holds what pprof reads: a gzip stream of a
// protobuf-encoded profile.proto Profile — every top-level field a varint
// or a length-delimited value that fits, at least one sample type, and a
// string table whose first entry is "".
func parsePprof(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("%s is empty", path)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	sampleTypes, strs := 0, 0
	for len(raw) > 0 {
		key, n := binary.Uvarint(raw)
		if n <= 0 {
			t.Fatalf("%s: bad field key", path)
		}
		raw = raw[n:]
		switch key & 7 {
		case 0: // varint
			if _, n = binary.Uvarint(raw); n <= 0 {
				t.Fatalf("%s: field %d: bad varint", path, key>>3)
			}
			raw = raw[n:]
		case 2: // length-delimited
			l, n := binary.Uvarint(raw)
			if n <= 0 || l > uint64(len(raw)-n) {
				t.Fatalf("%s: field %d: bad length", path, key>>3)
			}
			val := raw[n : n+int(l)]
			raw = raw[n+int(l):]
			switch key >> 3 {
			case 1:
				sampleTypes++
			case 6:
				if strs == 0 && len(val) != 0 {
					t.Fatalf("%s: string table starts with %q, want \"\"", path, val)
				}
				strs++
			}
		default:
			t.Fatalf("%s: field %d: wire type %d is not in profile.proto", path, key>>3, key&7)
		}
	}
	if sampleTypes == 0 || strs == 0 {
		t.Fatalf("%s: %d sample types, %d strings", path, sampleTypes, strs)
	}
}

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1e6; i++ {
		sink += i * i
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	parsePprof(t, cpu)
	parsePprof(t, mem)
}

// TestEmptyPathsAreNoop: with neither path set, Start profiles nothing —
// the CPU profiler stays free — and stop does nothing.
func TestEmptyPathsAreNoop(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("CPU profiler taken by Start with no paths: %v", err)
	}
	pprof.StopCPUProfile()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStopIsIdempotent: a second stop neither fails nor writes the heap
// profile again.
func TestStopIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(mem); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	if _, err := os.Stat(mem); !os.IsNotExist(err) {
		t.Errorf("second stop wrote the heap profile again (stat: %v)", err)
	}
	parsePprof(t, cpu)
}

// TestSecondStartFailsWhileProfiling: a second Start while the first CPU
// profile runs is an error, and the first profile still ends complete.
func TestSecondStartFailsWhileProfiling(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.pprof")
	stop, err := Start(first, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Start(filepath.Join(dir, "second.pprof"), ""); err == nil {
		t.Error("second Start while CPU profiling succeeded")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	parsePprof(t, first)
}
