package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"

	"complexobj/internal/metrics"
)

// environment is recorded with every result, so two numbers can be told
// apart by where they came from.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	WALFS      string `json:"wal_fs"`
	Seed       uint64 `json:"seed"`
	LoadNote   string `json:"load_note"`
}

func readEnvironment(workDir string, seed uint64) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		WALFS:      fsType(workDir),
		Seed:       seed,
		LoadNote:   "load generator, HTTP client and server share one process: CPU, allocation and RSS figures include the generator",
	}
}

// fsType names the filesystem holding dir (snapshots, WAL and checkpoint
// sidecars live there, so its fsync cost is part of serve_commit).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}

// resetPeakRSS hands the freed heap back to the operating system and
// restarts the resident-set high-water mark from what is left (Linux:
// writing 5 to clear_refs), so the mark read at the end of the run is the
// peak of the warm-up and the measured rounds, not of the repeated cold
// set-ups before them. It reports whether the mark was reset; where it
// cannot be, the mark covers the whole process.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	return float64(metrics.ReadProcStats().PeakRSSBytes) / (1 << 20)
}

// cpuJiffies reads the aggregate "cpu" line of /proc/stat: total and
// steal time, in clock ticks. Steal is time the hypervisor gave to
// someone else while this machine wanted to run — the direct measure of
// how noisy the neighbours were during a run.
func cpuJiffies() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter measures the steal share between start and read.
type stealMeter struct{ total, steal uint64 }

func startStealMeter() stealMeter {
	t, s := cpuJiffies()
	return stealMeter{t, s}
}

func (m stealMeter) frac() float64 {
	t, s := cpuJiffies()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}
