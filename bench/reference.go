package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"time"
)

// The reference clock.
//
// On the shared 2-vCPU box this benchmark was built on, the host's speed
// drifts by a quarter over minutes and by a tenth from one second to the
// next: the same binary on the same requests measured 16 500 and 27 500
// ops/s half an hour apart. No estimator that looks only at the workload
// can repeat within a tenth there — a run that falls into a slow quarter
// of an hour has no quiet round to pick.
//
// So the benchmark carries a second clock: a fixed loop of work that
// never changes with the repository (standard library only — a loopback
// HTTP round trip that allocates, encodes and decodes about what a served
// request does) runs in short bursts between the rounds, in a process of
// its own, while the workload's process is quiet (no round running, no
// collection marking: round.go, quietBurst). How fast that loop goes right
// now, against the nominal speed below, is how fast the host is right now,
// and a duration multiplied by the factor of the bursts around it is in
// "reference seconds": what it would have measured on a host that does
// referenceNominal loop iterations a second.
//
// setup_s is reported on this clock, and so is one of every pair of
// ungated timings (units ref_s, ref_ms); the other is the wall clock's
// reading, and the factor of every round is in the run's detail file.
//
// What this cannot hide: the loop shares no code with the repository, so
// a change to the repository moves the workload and not the reference.
// What it cannot correct: noise that hits the workload and spares the
// loop, or hits the two in another proportion — the loop is bound by CPU
// and system calls, a scan by memory, a commit by fsync — which is why no
// timing is gated on it except the set-up time the driver's contract
// requires (README.md, "Noise", gives the residue measured here). What it
// depends on: the loop is the Go standard library's and the kernel's code,
// so a toolchain or kernel change moves its speed and with it every
// reference-clock figure by one factor; parent and change are always
// measured with the same toolchain, so comparisons are unaffected.

// referenceNominal is the loop speed, in iterations a second, of the host
// the reported times refer to: about what the 2-vCPU build box does when
// its neighbours are quiet.
const referenceNominal = 40000.0

// burstLength is how long one reference burst of a real run lasts.
const burstLength = 60 * time.Millisecond

// reference measures the host's current speed factor: reference loop
// speed over referenceNominal (1 = nominal, below 1 = a slow moment).
type reference interface {
	burst() (float64, error)
	close() error
}

// twin is the reference loop itself: two closed-loop clients fetching a
// small JSON document from a loopback server, which fills a 12 KiB buffer
// and encodes a response for each request.
type twin struct {
	length time.Duration // how long one burst runs
	url    string
	stop   func() error // shuts the loop's server down
	client *http.Client
}

type twinPayload struct {
	Model   string     `json:"model"`
	Query   string     `json:"query"`
	Units   float64    `json:"units"`
	Raw     [6]int64   `json:"raw"`
	PerUnit [8]float64 `json:"perUnit"`
}

func newTwin(length time.Duration) (*twin, error) {
	base, stop, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		p := twinPayload{Model: q.Get("model"), Query: q.Get("query"), Units: 1}
		page := make([]byte, 12<<10)
		for i := 0; i < len(page); i += 64 {
			page[i] = byte(i)
		}
		p.Raw[0] = int64(page[128])
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p)
	}))
	if err != nil {
		return nil, err
	}
	return &twin{
		length: length,
		url:    base + "/run?model=DSM&query=1a&samples=1&seed=12345",
		stop:   stop,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}, nil
}

func (t *twin) burst() (float64, error) {
	const clients = 2
	var (
		wg    sync.WaitGroup
		count [clients]int
		errs  [clients]error
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < t.length {
				resp, err := t.client.Get(t.url)
				if err != nil {
					errs[c] = err
					return
				}
				var p twinPayload
				err = json.NewDecoder(resp.Body).Decode(&p)
				resp.Body.Close()
				if err != nil {
					errs[c] = err
					return
				}
				count[c]++
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for c := range count {
		if errs[c] != nil {
			return 0, fmt.Errorf("reference loop: %w", errs[c])
		}
		total += count[c]
	}
	return float64(total) / elapsed.Seconds() / referenceNominal, nil
}

func (t *twin) close() error {
	t.client.CloseIdleConnections()
	return t.stop()
}

// sidecar runs the twin in a child process of this binary (`-reference`),
// so the loop's garbage collector never sees the workload's heap and its
// CPU time and memory never enter the workload's figures. One line on
// the child's standard input asks for a burst; the child answers with
// the factor.
type sidecar struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startSidecar() (*sidecar, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-reference")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("reference sidecar: %w", err)
	}
	s := &sidecar{cmd: cmd, in: in, out: bufio.NewReader(out)}
	// One discarded burst dials the loop's connections.
	if _, err := s.burst(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *sidecar) burst() (float64, error) {
	if _, err := io.WriteString(s.in, "burst\n"); err != nil {
		return 0, fmt.Errorf("reference sidecar: %w", err)
	}
	line, err := s.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference sidecar: %w", err)
	}
	var f float64
	if _, err := fmt.Sscan(line, &f); err != nil || !(f > 0) {
		return 0, fmt.Errorf("reference sidecar answered %q", line)
	}
	return f, nil
}

// close ends the child (it exits when its input closes) and waits for it.
func (s *sidecar) close() error {
	s.in.Close()
	return s.cmd.Wait()
}

// serveReference is the child side of the sidecar: one burst per input
// line, until the input closes.
func serveReference(in io.Reader, out io.Writer) error {
	t, err := newTwin(burstLength)
	if err != nil {
		return err
	}
	defer t.close()
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		f, err := t.burst()
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(out, "%.9g\n", f); err != nil {
			return err
		}
	}
	return sc.Err()
}
