package faultdisk

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"complexobj/internal/disk"
	"complexobj/internal/xrand"
)

// Kind classifies an injected fault.
type Kind int

const (
	// Transient is an I/O error that clears on retry (the schedule draws
	// independently per attempt).
	Transient Kind = iota
	// Permanent marks the page as poisoned: every later access to it
	// fails too, retrying never helps.
	Permanent
	// ShortRead fills only a prefix of the destination buffer before
	// failing — the bytes beyond the prefix are left untouched.
	ShortRead
	// TornWrite stores only a prefix of the source buffer before
	// failing — the page image ends up half old, half new.
	TornWrite
	// GrowFault fails an arena extension (transiently).
	GrowFault
	// PanicFault panics out of the backend call instead of returning an
	// error, exercising the caller's recovery path.
	PanicFault
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case ShortRead:
		return "short read"
	case TornWrite:
		return "torn write"
	case GrowFault:
		return "grow fault"
	case PanicFault:
		return "panic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is the error an injected fault surfaces as. It carries the
// operation, the page and the fault class, so tests and logs can tell an
// injected failure from a real one.
type Fault struct {
	// Op is the backend operation that faulted: "read", "write" or "grow".
	Op string
	// Page is the device page the fault hit (-1 when not page-addressed).
	Page int
	// Kind is the fault class.
	Kind Kind
}

// Error implements the error interface.
func (f *Fault) Error() string {
	if f.Page < 0 {
		return fmt.Sprintf("faultdisk: injected %s fault on %s", f.Kind, f.Op)
	}
	return fmt.Sprintf("faultdisk: injected %s fault on %s of page %d", f.Kind, f.Op, f.Page)
}

// Transient reports whether a retry of the failed operation may succeed
// (the schedule draws independently per attempt; only poisoned pages stay
// broken). disk.IsTransient keys its retry policy off this method.
func (f *Fault) Transient() bool { return f.Kind != Permanent }

// Spec is a parsed fault schedule: per-operation probabilities plus the
// seed that makes the schedule reproducible. The zero value injects
// nothing. Build specs with ParseSpec; see that function for the textual
// grammar.
type Spec struct {
	// Seed keys the pseudo-random schedule. Every wrapped backend draws
	// from its own stream derived from (Seed, wrap sequence number), so a
	// run that opens its engines in the same order sees the same faults.
	Seed uint64
	// Read, Write and Grow are the per-operation probabilities of a
	// transient error on reads, writes and arena growth.
	Read, Write, Grow float64
	// Perm is the per-operation probability of permanently poisoning the
	// touched page: the access fails and so does every later access to
	// that page through the same backend.
	Perm float64
	// Short is the per-read probability of a short read (a prefix of the
	// buffer filled, then an error).
	Short float64
	// Torn is the per-write probability of a torn write (a prefix of the
	// buffer stored, then an error).
	Torn float64
	// Panic is the per-operation probability of panicking out of the
	// backend call instead of returning an error.
	Panic float64
	// LatencyProb is the per-operation probability of sleeping Latency
	// before the operation proceeds.
	LatencyProb float64
	// Latency is the injected delay.
	Latency time.Duration
	// PageLo and PageHi restrict injection to operations touching pages
	// in [PageLo, PageHi] (inclusive). PageHi 0 means no upper bound, so
	// the zero values cover the whole arena.
	PageLo, PageHi int
}

// Enabled reports whether the spec can inject anything at all.
func (s Spec) Enabled() bool {
	return s.Read > 0 || s.Write > 0 || s.Grow > 0 || s.Perm > 0 ||
		s.Short > 0 || s.Torn > 0 || s.Panic > 0 ||
		(s.LatencyProb > 0 && s.Latency > 0)
}

// inRange reports whether injection applies to page pg.
func (s Spec) inRange(pg int) bool {
	hi := s.PageHi
	if hi <= 0 {
		hi = math.MaxInt
	}
	return pg >= s.PageLo && pg <= hi
}

// ParseSpec parses the textual fault-schedule grammar: a comma-separated
// list of key=value clauses,
//
//	seed=N        schedule seed (default 0)
//	read=P        transient read-error probability
//	write=P       transient write-error probability
//	grow=P        transient grow-error probability
//	perm=P        permanent page-poisoning probability
//	short=P       short-read probability
//	torn=P        torn-write probability
//	panic=P       backend-panic probability
//	latency=[P:]D injected delay D (Go duration) with probability P (default 1)
//	pages=A[-[B]] restrict injection to pages A..B (inclusive; open-ended
//	              when B is omitted)
//
// with every probability P in [0, 1]. Example:
//
//	seed=7,read=0.02,short=0.005,latency=0.05:2ms
func ParseSpec(s string) (Spec, error) {
	var out Spec
	if strings.TrimSpace(s) == "" {
		return Spec{}, fmt.Errorf("faultdisk: empty fault spec")
	}
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faultdisk: clause %q is not key=value", clause)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faultdisk: bad seed %q", val)
			}
			out.Seed = n
		case "read", "write", "grow", "perm", "short", "torn", "panic":
			p, err := parseProb(val)
			if err != nil {
				return Spec{}, fmt.Errorf("faultdisk: %s: %w", key, err)
			}
			switch key {
			case "read":
				out.Read = p
			case "write":
				out.Write = p
			case "grow":
				out.Grow = p
			case "perm":
				out.Perm = p
			case "short":
				out.Short = p
			case "torn":
				out.Torn = p
			case "panic":
				out.Panic = p
			}
		case "latency":
			prob, durs := 1.0, val
			if ps, ds, ok := strings.Cut(val, ":"); ok {
				p, err := parseProb(ps)
				if err != nil {
					return Spec{}, fmt.Errorf("faultdisk: latency: %w", err)
				}
				prob, durs = p, ds
			}
			d, err := time.ParseDuration(durs)
			if err != nil || d < 0 {
				return Spec{}, fmt.Errorf("faultdisk: bad latency duration %q", durs)
			}
			out.LatencyProb, out.Latency = prob, d
		case "pages":
			lo, hi, err := parsePageRange(val)
			if err != nil {
				return Spec{}, err
			}
			out.PageLo, out.PageHi = lo, hi
		default:
			return Spec{}, fmt.Errorf("faultdisk: unknown clause %q (want seed, read, write, grow, perm, short, torn, panic, latency or pages)", key)
		}
	}
	return out, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(p) || p < 0 || p > 1 {
		return 0, fmt.Errorf("bad probability %q (want a number in [0,1])", s)
	}
	return p, nil
}

func parsePageRange(s string) (lo, hi int, err error) {
	los, his, dashed := strings.Cut(s, "-")
	lo, lerr := strconv.Atoi(strings.TrimSpace(los))
	if lerr != nil || lo < 0 {
		return 0, 0, fmt.Errorf("faultdisk: bad page range %q", s)
	}
	if !dashed || strings.TrimSpace(his) == "" {
		if !dashed {
			hi = lo // "pages=A": just page A
		}
		return lo, hi, nil // "pages=A-": open-ended (hi 0)
	}
	hi, herr := strconv.Atoi(strings.TrimSpace(his))
	if herr != nil || hi < lo {
		return 0, 0, fmt.Errorf("faultdisk: bad page range %q", s)
	}
	return lo, hi, nil
}

// String renders the spec back in ParseSpec grammar (empty for the zero
// spec). Round-trips: ParseSpec(s.String()) reproduces s.
func (s Spec) String() string {
	var parts []string
	add := func(k string, p float64) {
		if p > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(p, 'g', -1, 64))
		}
	}
	if s.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatUint(s.Seed, 10))
	}
	add("read", s.Read)
	add("write", s.Write)
	add("grow", s.Grow)
	add("perm", s.Perm)
	add("short", s.Short)
	add("torn", s.Torn)
	add("panic", s.Panic)
	// Degenerate-but-parseable latency clauses (probability or delay
	// zero) render too: the clause injects nothing, but dropping it would
	// break the round-trip for specs ParseSpec accepted.
	if s.LatencyProb > 0 || s.Latency > 0 {
		parts = append(parts, fmt.Sprintf("latency=%s:%s",
			strconv.FormatFloat(s.LatencyProb, 'g', -1, 64), s.Latency))
	}
	switch {
	case s.PageLo == 0 && s.PageHi == 0:
	case s.PageHi == 0:
		parts = append(parts, fmt.Sprintf("pages=%d-", s.PageLo))
	default:
		parts = append(parts, fmt.Sprintf("pages=%d-%d", s.PageLo, s.PageHi))
	}
	return strings.Join(parts, ",")
}

// Counters is a snapshot of the faults one Injector has inflicted across
// every backend wrapped from it. Counters only ever count injected
// misbehavior — they are invisible in the paper's I/O statistics, which
// increment solely on successful page transfers. The JSON tags are the
// names the server's /info reports them under (complexobj.FaultStats is
// this type).
type Counters struct {
	// Ops counts backend operations that consulted the schedule.
	Ops int64 `json:"ops"`
	// ReadFaults, WriteFaults and GrowFaults count injected transient
	// errors per operation class.
	ReadFaults  int64 `json:"readFaults"`
	WriteFaults int64 `json:"writeFaults"`
	GrowFaults  int64 `json:"growFaults"`
	// PermFaults counts operations failed on a poisoned page (including
	// the op that poisoned it); PoisonedPages counts the pages poisoned.
	PermFaults    int64 `json:"permFaults"`
	PoisonedPages int64 `json:"poisonedPages"`
	// ShortReads and TornWrites count injected partial transfers.
	ShortReads int64 `json:"shortReads"`
	TornWrites int64 `json:"tornWrites"`
	// Panics counts injected backend panics.
	Panics int64 `json:"panics"`
	// Delays counts injected latency sleeps.
	Delays int64 `json:"delays"`
}

// Injected returns the total number of injected faults (delays excluded:
// latency slows an operation but does not fail it).
func (c Counters) Injected() int64 {
	return c.ReadFaults + c.WriteFaults + c.GrowFaults + c.PermFaults +
		c.ShortReads + c.TornWrites + c.Panics
}

// Injector owns one fault schedule and wraps any number of backends in
// it. All wrapped backends share the injector's counters; each draws from
// its own pseudo-random stream keyed by (Spec.Seed, wrap order), so a run
// that opens its engines in a deterministic order injects a reproducible
// fault sequence. The counters are safe to read concurrently; each
// wrapped backend itself inherits the disk.Backend contract (serialized
// by its owning device).
type Injector struct {
	spec  Spec
	seq   atomic.Uint64
	sleep func(time.Duration) // test seam for injected latency

	ops, readFaults, writeFaults, growFaults atomic.Int64
	permFaults, poisonedPages                atomic.Int64
	shortReads, tornWrites                   atomic.Int64
	panics, delays                           atomic.Int64
}

// New builds an injector for the given schedule.
func New(spec Spec) *Injector {
	return &Injector{spec: spec, sleep: time.Sleep}
}

// Spec returns the injector's schedule.
func (in *Injector) Spec() Spec { return in.spec }

// Counters snapshots the injected-fault counters across all wrapped
// backends.
func (in *Injector) Counters() Counters {
	return Counters{
		Ops:           in.ops.Load(),
		ReadFaults:    in.readFaults.Load(),
		WriteFaults:   in.writeFaults.Load(),
		GrowFaults:    in.growFaults.Load(),
		PermFaults:    in.permFaults.Load(),
		PoisonedPages: in.poisonedPages.Load(),
		ShortReads:    in.shortReads.Load(),
		TornWrites:    in.tornWrites.Load(),
		Panics:        in.panics.Load(),
		Delays:        in.delays.Load(),
	}
}

// Wrap layers the injector's schedule over b. The wrapper exposes Unwrap,
// so device affordances that need the substrate (COW view recycling,
// overlay accounting) keep working.
func (in *Injector) Wrap(b disk.Backend) disk.Backend {
	seed := xrand.Mix(in.spec.Seed, in.seq.Add(1)-1)
	return &backend{in: in, inner: b, rng: xrand.New(seed)}
}

// backend is one wrapped disk.Backend drawing from its own stream.
type backend struct {
	in       *Injector
	inner    disk.Backend
	rng      *xrand.Source
	poisoned map[int]bool
}

// Unwrap exposes the wrapped substrate (disk's COW helpers walk it).
func (b *backend) Unwrap() disk.Backend { return b.inner }

func (b *backend) Len() int     { return b.inner.Len() }
func (b *backend) Close() error { return b.inner.Close() }

// StablePage implements disk.StablePager by delegation, but never for a
// page the fault schedule applies to: zero-copy borrows bypass ReadAt,
// which is where read faults, short reads, poisoning and latency live, so
// targeted pages must stay on the copying path to keep injecting. Pages
// outside the spec's range never consulted the schedule (no random draws)
// in ReadAt either, so sharing them leaves the fault stream and the op
// counters exactly as they were.
func (b *backend) StablePage(off, n int) ([]byte, bool) {
	if b.in.spec.Enabled() {
		if _, hit := b.target(off, n); hit {
			return nil, false
		}
	}
	sp, ok := b.inner.(disk.StablePager)
	if !ok {
		return nil, false
	}
	return sp.StablePage(off, n)
}

// target returns the first page of [off, off+n) the schedule applies to,
// or ok=false when the access is outside the spec's page range (then the
// operation passes through without consulting the schedule, keeping the
// random stream unperturbed).
func (b *backend) target(off, n int) (int, bool) {
	if n <= 0 {
		return 0, false
	}
	first, last := off/disk.DefaultPageSize, (off+n-1)/disk.DefaultPageSize
	for pg := first; pg <= last; pg++ {
		if b.in.spec.inRange(pg) {
			return pg, true
		}
	}
	return 0, false
}

// begin runs the schedule steps common to every op: count it, maybe
// sleep, maybe fail on (or poison) the page, maybe panic. A nil return
// means the operation should proceed to the per-op draws.
func (b *backend) begin(op string, pg int) error {
	spec := b.in.spec
	b.in.ops.Add(1)
	if spec.Latency > 0 && b.rng.Bool(spec.LatencyProb) {
		b.in.delays.Add(1)
		b.in.sleep(spec.Latency)
	}
	if b.poisoned[pg] {
		b.in.permFaults.Add(1)
		return &Fault{Op: op, Page: pg, Kind: Permanent}
	}
	if b.rng.Bool(spec.Perm) {
		if b.poisoned == nil {
			b.poisoned = make(map[int]bool)
		}
		b.poisoned[pg] = true
		b.in.poisonedPages.Add(1)
		b.in.permFaults.Add(1)
		return &Fault{Op: op, Page: pg, Kind: Permanent}
	}
	if b.rng.Bool(spec.Panic) {
		b.in.panics.Add(1)
		panic(&Fault{Op: op, Page: pg, Kind: PanicFault})
	}
	return nil
}

func (b *backend) ReadAt(p []byte, off int) error {
	pg, ok := b.target(off, len(p))
	if !ok {
		return b.inner.ReadAt(p, off)
	}
	if err := b.begin("read", pg); err != nil {
		return err
	}
	spec := b.in.spec
	if b.rng.Bool(spec.Read) {
		b.in.readFaults.Add(1)
		return &Fault{Op: "read", Page: pg, Kind: Transient}
	}
	if b.rng.Bool(spec.Short) {
		// Fill only a prefix, then fail: the caller's buffer ends half
		// stale, which is exactly what the device layer must treat as
		// garbage (the Backend contract says overwrite all of p).
		if err := b.inner.ReadAt(p[:len(p)/2], off); err != nil {
			return err
		}
		b.in.shortReads.Add(1)
		return &Fault{Op: "read", Page: pg, Kind: ShortRead}
	}
	return b.inner.ReadAt(p, off)
}

func (b *backend) WriteAt(p []byte, off int) error {
	pg, ok := b.target(off, len(p))
	if !ok {
		return b.inner.WriteAt(p, off)
	}
	if err := b.begin("write", pg); err != nil {
		return err
	}
	spec := b.in.spec
	if b.rng.Bool(spec.Write) {
		b.in.writeFaults.Add(1)
		return &Fault{Op: "write", Page: pg, Kind: Transient}
	}
	if b.rng.Bool(spec.Torn) {
		// Store only a prefix, then fail: the stored image is torn (half
		// old, half new bytes). Layers above must either not reuse the
		// page (buffer keeps the frame dirty) or rebuild it.
		if err := b.inner.WriteAt(p[:len(p)/2], off); err != nil {
			return err
		}
		b.in.tornWrites.Add(1)
		return &Fault{Op: "write", Page: pg, Kind: TornWrite}
	}
	return b.inner.WriteAt(p, off)
}

func (b *backend) Grow(n int) error {
	if b.in.spec.Grow > 0 {
		b.in.ops.Add(1)
		if b.rng.Bool(b.in.spec.Grow) {
			b.in.growFaults.Add(1)
			return &Fault{Op: "grow", Page: -1, Kind: GrowFault}
		}
	}
	return b.inner.Grow(n)
}
