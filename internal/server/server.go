package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/shard"
)

// Config parameterizes a Server.
type Config struct {
	// Snapshot is the path of the cogen-built .codb snapshot to serve.
	Snapshot string
	// Models selects the storage models to serve (nil: every model the
	// snapshot holds). Each gets its own base and view pool.
	Models []complexobj.ModelKind
	// BufferPages is the buffer-pool capacity of every view (default
	// 1200, the paper's installation).
	BufferPages int
	// MaxViews bounds the views — and so the in-flight requests — per
	// model (default 8). Requests beyond the bound queue.
	MaxViews int
	// Workload supplies the request defaults for loops, samples and seed;
	// zero fields fall back to the benchmark defaults.
	Workload cobench.Workload
	// MaxInflight bounds the /run requests admitted concurrently across
	// every model — the deployment-level memory envelope on top of the
	// per-model view semaphores. 0 defaults to twice the summed view
	// bound (so admission queues before the pools do); negative means
	// unbounded. Requests beyond the bound wait until a slot frees or
	// their deadline expires, then are shed with 503 + Retry-After.
	MaxInflight int
	// RequestTimeout bounds one /run request end to end — waiting for
	// admission, acquiring a view and executing the query. 0 means no
	// deadline. Deadlined requests are shed with 503 + Retry-After and
	// report no counters at all (never a truncated measurement).
	RequestTimeout time.Duration
	// Faults arms the fault-injection schedule on every view engine
	// (nil: none). Injected faults never alter the counters of
	// successful responses; see complexobj.ParseFaultPlan.
	Faults *complexobj.FaultPlan
	// WALDir arms the durable commit path: the served bases open from
	// the directory's per-model checkpoints (falling back to Snapshot on
	// first start), the write-ahead log replays on startup, and /run
	// requests carrying commit=1 fold their mutations into the served
	// base durably. Empty serves read-only classic behavior: mutations
	// are measured, then discarded with the view.
	WALDir string
	// CheckpointBytes compacts the write-ahead log whenever it exceeds
	// this size after a commit (0: never checkpoint automatically).
	// Only meaningful with WALDir.
	CheckpointBytes int64
	// ShardMap is the path of a shard-map file (cogen -split): the server
	// becomes one backend of a scale-out deployment, serving only the
	// models its shards own — from their per-shard .codb segments — and
	// rejecting out-of-shard models with 421 Misdirected Request (the
	// structured signal coshard re-routes on). Empty: classic unsharded
	// serving from Snapshot. Mutually exclusive with Models.
	ShardMap string
	// Shards selects the shard IDs this backend owns at startup (empty
	// with ShardMap set: every shard in the map). Ownership can change at
	// runtime through the /shards/acquire and /shards/release endpoints —
	// the rebalance protocol that makes a segment handoff between two
	// live backends a file open + mmap, never a copy or a restart.
	Shards []int
}

// Server serves benchmark queries from snapshot-backed shared bases. See
// the package comment for the endpoints, the measurement contract and the
// lock order.
type Server struct {
	cfg  Config
	info complexobj.SnapshotInfo

	// omu guards the ownership state: which models this server serves
	// (ownership.go). Static for an unsharded server; a sharded one
	// mutates it through /shards/acquire and /shards/release, so every
	// reader (request routing, /info, /metrics) takes the read lock — for
	// the map access only, never across a query.
	omu    sync.RWMutex
	models map[complexobj.ModelKind]*served
	smap   *shard.Map // nil: unsharded
	owned  []int      // sorted shard IDs currently owned

	start    time.Time
	requests atomic.Int64

	// slots is the server-wide admission semaphore (nil: unbounded).
	slots        chan struct{}
	maxInflight  int
	shedAdmit    atomic.Int64 // requests shed waiting for an admission slot
	shedDeadline atomic.Int64 // requests shed by their deadline after admission
	panics       atomic.Int64 // recovered /run panics (their views quarantined)

	// mu guards the /stats aggregates (stats.go); innermost, never held
	// across anything but the fold.
	mu         sync.Mutex
	agg        map[AggKey]*AggCell
	aggDropped int64

	// lat holds the per-(model, query) latency histograms behind /metrics
	// and the /info metrics block. Purely observational: recording is
	// atomic arithmetic beside the request, never an engine operation.
	lat *latencyCells

	// clog is the durable commit path (nil without -wal); commitLat holds
	// the per-model commit-latency histograms (log append + fsync +
	// promotion).
	clog      *complexobj.CommitLog
	commitLat *latencyCells
}

// New builds an empty server and opens every configured model through the
// path a runtime shard acquisition takes: the owned shards of a sharded
// backend, or cfg.Models out of cfg.Snapshot for an unsharded one. Close
// the server to release them.
func New(cfg Config) (*Server, error) {
	s := &Server{
		models: make(map[complexobj.ModelKind]*served),
		start:  time.Now(),
		agg:    make(map[AggKey]*AggCell),
		lat:    newLatencyCells(),
	}
	var err error
	if cfg.ShardMap != "" {
		if len(cfg.Models) > 0 {
			return nil, errors.New("server: Models and ShardMap are mutually exclusive (the map decides ownership)")
		}
		if s.smap, err = shard.Load(cfg.ShardMap); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		if len(cfg.Shards) == 0 {
			for _, sh := range s.smap.Shards {
				cfg.Shards = append(cfg.Shards, sh.ID)
			}
		}
	} else if cfg.Shards != nil {
		return nil, errors.New("server: Shards needs ShardMap")
	}
	// Default field by field, so a caller setting only some workload
	// knobs (just a seed, just loops) keeps them and gets the benchmark
	// defaults for the rest. Seed is defaulted only when the whole
	// workload is unset: zero loops/samples are meaningless, but zero is
	// a perfectly good seed (`coserve -seed 0` must stay seed 0).
	def := cobench.DefaultWorkload()
	if cfg.Workload == (cobench.Workload{}) {
		cfg.Workload.Seed = def.Seed
	}
	if cfg.Workload.Loops == 0 {
		cfg.Workload.Loops = def.Loops
	}
	if cfg.Workload.Samples == 0 {
		cfg.Workload.Samples = def.Samples
	}
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 1200 // the paper's installation; keeps /info truthful
	}
	s.cfg = cfg
	if s.info, err = s.identity(); err != nil {
		return nil, err
	}
	if cfg.WALDir != "" {
		if s.clog, err = complexobj.OpenCommitLog(cfg.WALDir); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.commitLat = newLatencyCells()
	}
	if err := s.openConfigured(); err != nil {
		s.Close()
		return nil, err
	}
	if s.clog != nil {
		// Replay whatever a previous process left in the log — after a
		// kill the served state is exactly the last acknowledged commit.
		if _, err := s.clog.Recover(); err != nil {
			s.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	// Admission envelope: by default twice the summed per-model view
	// bound, so the global gate queues (and sheds) before every pool is
	// saturated and the memory promise — MaxInflight × (buffer pool +
	// dirtied overlay) over the shared bases — holds whatever mix of
	// models the traffic hits. A sharded backend sizes the envelope over
	// the map's full model set, not its current subset: the bound must not
	// change when shards move, and a backend can end up owning everything.
	mv := cfg.MaxViews
	if mv <= 0 {
		mv = 8
	}
	envelope := len(s.models)
	if s.smap != nil {
		envelope = len(s.smap.Models())
	}
	s.maxInflight = cfg.MaxInflight
	if s.maxInflight == 0 {
		s.maxInflight = 2 * mv * envelope
	}
	if s.maxInflight > 0 {
		s.slots = make(chan struct{}, s.maxInflight)
	}
	return s, nil
}

// openConfigured opens what the configuration serves at startup.
func (s *Server) openConfigured() error {
	s.omu.Lock()
	defer s.omu.Unlock()
	if s.smap != nil {
		for _, id := range s.cfg.Shards {
			if _, err := s.serveShardLocked(id, ""); err != nil {
				return err
			}
		}
		return nil
	}
	models := s.cfg.Models
	if len(models) == 0 {
		models = s.info.Models
	}
	for _, k := range models {
		// A kind named twice is served once.
		if s.models[k] == nil {
			if err := s.openModelLocked(k, s.cfg.Snapshot); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close releases the view pools and then the shared bases (dropping the
// snapshot file mappings).
func (s *Server) Close() error {
	s.omu.Lock()
	defer s.omu.Unlock()
	var first error
	for k := range s.models {
		if err := s.closeModelLocked(k); err != nil && first == nil {
			first = err
		}
	}
	if s.clog != nil {
		if err := s.clog.Close(); err != nil && first == nil {
			first = err
		}
		s.clog = nil
	}
	return first
}

// Info returns the snapshot metadata of the served database.
func (s *Server) Info() complexobj.SnapshotInfo { return s.info }

// TotalArenaBytes sums the shared arena sizes of every served base — the
// memory the bases cost if fully resident, paid once regardless of view
// count (the RSS smoke bounds the serving process against a multiple of
// this).
func (s *Server) TotalArenaBytes() int {
	s.omu.RLock()
	defer s.omu.RUnlock()
	n := 0
	for _, m := range s.models {
		n += m.base.ArenaBytes()
	}
	return n
}

// Handler returns the HTTP handler serving the package's endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/info", s.handleInfo)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/shards/acquire", s.handleShardAcquire)
	mux.HandleFunc("/shards/release", s.handleShardRelease)
	return mux
}
