package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
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
// the package comment for the endpoint list and the measurement contract.
type Server struct {
	cfg  Config
	info complexobj.SnapshotInfo

	// omu guards the ownership state below: which models this server
	// serves and out of which segment. Static for an unsharded server;
	// a sharded one mutates it through /shards/acquire and
	// /shards/release, so every reader (request routing, /info, /metrics)
	// takes the read lock. Held only for map access, never across a query.
	omu      sync.RWMutex
	models   []complexobj.ModelKind
	bases    map[complexobj.ModelKind]*complexobj.Base
	pools    map[complexobj.ModelKind]*complexobj.ViewPool
	segments map[complexobj.ModelKind]string // serving segment per model (info only)
	smap     *shard.Map                      // nil: unsharded
	owned    []int                           // sorted shard IDs currently owned

	start    time.Time
	requests atomic.Int64

	// admit is the server-wide admission semaphore (nil: unbounded).
	admit        chan struct{}
	maxInflight  int
	shedAdmit    atomic.Int64 // requests shed waiting for an admission slot
	shedDeadline atomic.Int64 // requests shed by their deadline after admission
	panics       atomic.Int64 // recovered /run panics (their views quarantined)

	mu         sync.Mutex
	agg        map[AggKey]*aggregate
	aggDropped int64

	// lat holds the per-(model, query) latency histograms behind /metrics
	// and the /info metrics block. Purely observational: recording is
	// atomic arithmetic beside the request, never an engine operation.
	lat *latencyCells

	// clog is the durable commit path (nil without -wal). commitMu
	// serializes commits per model across acquire→run→commit, the
	// serialization View.Commit requires; commitLat holds the per-model
	// commit-latency histograms (log append + fsync + promotion).
	clog      *complexobj.CommitLog
	commitMu  map[complexobj.ModelKind]*sync.Mutex
	commitLat *latencyCells
	commits   atomic.Int64
}

// New opens one shared base per served model from the snapshot (or, for
// a sharded backend, from its shards' segments) and builds the view
// pools. Close the server to release them.
func New(cfg Config) (*Server, error) {
	var (
		models   []complexobj.ModelKind
		segments = make(map[complexobj.ModelKind]string)
		smap     *shard.Map
		owned    []int
		info     complexobj.SnapshotInfo
		err      error
	)
	if cfg.ShardMap != "" {
		if len(cfg.Models) > 0 {
			return nil, errors.New("server: Models and ShardMap are mutually exclusive (the map decides ownership)")
		}
		smap, err = shard.Load(cfg.ShardMap)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		ids := cfg.Shards
		if len(ids) == 0 {
			for _, sh := range smap.Shards {
				ids = append(ids, sh.ID)
			}
		}
		for _, id := range ids {
			sh, ok := smap.Shard(id)
			if !ok {
				return nil, fmt.Errorf("server: no shard %d in %s", id, cfg.ShardMap)
			}
			seg, err := segmentPath(cfg.ShardMap, cfg.Snapshot, sh)
			if err != nil {
				return nil, err
			}
			for _, name := range sh.Models {
				k, err := complexobj.ModelByName(name)
				if err != nil {
					return nil, fmt.Errorf("server: shard %d: %w", id, err)
				}
				if _, dup := segments[k]; dup {
					return nil, fmt.Errorf("server: model %s owned twice across -shards", k)
				}
				segments[k] = seg
				models = append(models, k)
			}
			owned = append(owned, id)
		}
		sort.Ints(owned)
		// The /info identity (generator config, page size) comes from any
		// reachable segment: Extract copies the header verbatim, so every
		// segment of a deployment agrees — including ones this backend
		// does not own, which covers a standby starting with zero shards.
		info, err = shardedInfo(cfg, smap, models, segments)
		if err != nil {
			return nil, err
		}
	} else {
		if cfg.Shards != nil {
			return nil, errors.New("server: Shards needs ShardMap")
		}
		info, err = complexobj.StatSnapshot(cfg.Snapshot)
		if err != nil {
			return nil, err
		}
		models = cfg.Models
		if len(models) == 0 {
			models = info.Models
		} else {
			// Deduplicate caller-supplied kinds: a duplicate would open a
			// second base+pool for the kind and leak the first (Close walks
			// the maps, which only keep the last).
			seen := make(map[complexobj.ModelKind]bool, len(models))
			dedup := models[:0:0]
			for _, k := range models {
				if !seen[k] {
					seen[k] = true
					dedup = append(dedup, k)
				}
			}
			models = dedup
		}
		for _, k := range models {
			segments[k] = cfg.Snapshot
		}
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
	s := &Server{
		cfg:      cfg,
		info:     info,
		models:   models,
		bases:    make(map[complexobj.ModelKind]*complexobj.Base, len(models)),
		pools:    make(map[complexobj.ModelKind]*complexobj.ViewPool, len(models)),
		segments: segments,
		smap:     smap,
		owned:    owned,
		start:    time.Now(),
		agg:      make(map[AggKey]*aggregate),
		lat:      newLatencyCells(),
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
	envelope := len(models)
	if smap != nil {
		envelope = len(smap.Models())
	}
	s.maxInflight = cfg.MaxInflight
	if s.maxInflight == 0 {
		s.maxInflight = 2 * mv * envelope
	}
	if s.maxInflight > 0 {
		s.admit = make(chan struct{}, s.maxInflight)
	}
	if cfg.WALDir != "" {
		clog, err := complexobj.OpenCommitLog(cfg.WALDir)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.clog = clog
		s.commitMu = make(map[complexobj.ModelKind]*sync.Mutex, len(models))
		s.commitLat = newLatencyCells()
	}
	for _, k := range models {
		if err := s.openModelLocked(k, segments[k]); err != nil {
			s.Close()
			return nil, err
		}
	}
	if s.clog != nil {
		// Replay whatever a previous process left in the log — after a
		// kill the served state is exactly the last acknowledged commit.
		if _, err := s.clog.Recover(); err != nil {
			s.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	return s, nil
}

// Close releases the view pools and then the shared bases (dropping the
// snapshot file mappings).
func (s *Server) Close() error {
	s.omu.Lock()
	defer s.omu.Unlock()
	var first error
	for k, p := range s.pools {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.pools, k)
	}
	for k, b := range s.bases {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.bases, k)
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
	for _, b := range s.bases {
		n += b.ArenaBytes()
	}
	return n
}

// WorkloadParams identifies the workload knobs of a request (and so of an
// aggregation cell).
type WorkloadParams struct {
	Loops   int    `json:"loops"`
	Samples int    `json:"samples"`
	Seed    uint64 `json:"seed"`
}

// Counters are raw I/O counters, JSON-shaped.
type Counters struct {
	PagesRead    int64 `json:"pagesRead"`
	PagesWritten int64 `json:"pagesWritten"`
	ReadCalls    int64 `json:"readCalls"`
	WriteCalls   int64 `json:"writeCalls"`
	BufferFixes  int64 `json:"bufferFixes"`
	BufferHits   int64 `json:"bufferHits"`
}

func toCounters(s complexobj.Stats) Counters {
	return Counters{
		PagesRead:    s.PagesRead,
		PagesWritten: s.PagesWritten,
		ReadCalls:    s.ReadCalls,
		WriteCalls:   s.WriteCalls,
		BufferFixes:  s.BufferFixes,
		BufferHits:   s.BufferHits,
	}
}

// Stats is the inverse of toCounters, kept adjacent so a counter added to
// one mapping cannot silently be dropped from the other (cobench's client
// mode reconstructs local results from served payloads through these).
func (c Counters) Stats() complexobj.Stats {
	return complexobj.Stats{
		PagesRead:    c.PagesRead,
		PagesWritten: c.PagesWritten,
		ReadCalls:    c.ReadCalls,
		WriteCalls:   c.WriteCalls,
		BufferFixes:  c.BufferFixes,
		BufferHits:   c.BufferHits,
	}
}

func (c *Counters) add(o Counters) {
	c.PagesRead += o.PagesRead
	c.PagesWritten += o.PagesWritten
	c.ReadCalls += o.ReadCalls
	c.WriteCalls += o.WriteCalls
	c.BufferFixes += o.BufferFixes
	c.BufferHits += o.BufferHits
}

// PerUnit are the normalized counters, the numbers of the paper's tables.
type PerUnit struct {
	Pages        float64 `json:"pages"`
	PagesRead    float64 `json:"pagesRead"`
	PagesWritten float64 `json:"pagesWritten"`
	Calls        float64 `json:"calls"`
	ReadCalls    float64 `json:"readCalls"`
	WriteCalls   float64 `json:"writeCalls"`
	Fixes        float64 `json:"fixes"`
	Hits         float64 `json:"hits"`
}

func toPerUnit(r complexobj.QueryResult) PerUnit {
	return PerUnit{
		Pages:        r.Pages,
		PagesRead:    r.PagesRead,
		PagesWritten: r.PagesWritten,
		Calls:        r.Calls,
		ReadCalls:    r.ReadCalls,
		WriteCalls:   r.WriteCalls,
		Fixes:        r.Fixes,
		Hits:         r.Hits,
	}
}

// Apply is the inverse of toPerUnit (see Counters.Stats for why the pair
// lives here): it writes the normalized counters back onto a result.
func (p PerUnit) Apply(r *complexobj.QueryResult) {
	r.Pages = p.Pages
	r.PagesRead = p.PagesRead
	r.PagesWritten = p.PagesWritten
	r.Calls = p.Calls
	r.ReadCalls = p.ReadCalls
	r.WriteCalls = p.WriteCalls
	r.Fixes = p.Fixes
	r.Hits = p.Hits
}

// RunResponse is the /run payload: one query execution with its private,
// per-request counters.
type RunResponse struct {
	Model     string         `json:"model"`
	Query     string         `json:"query"`
	Supported bool           `json:"supported"`
	Units     float64        `json:"units"`
	Workload  WorkloadParams `json:"workload"`
	Raw       Counters       `json:"raw"`
	PerUnit   PerUnit        `json:"perUnit"`
	ElapsedUS int64          `json:"elapsedMicros"`
	// Committed reports that the run's mutations were durably committed
	// (commit=1 against a -wal server); CommitSeq/CommitGen identify the
	// acknowledged commit, CommitUS its latency (log append + fsync +
	// promotion, outside the measured counters). Absent on read-only
	// runs.
	Committed bool   `json:"committed,omitempty"`
	CommitSeq uint64 `json:"commitSeq,omitempty"`
	CommitGen uint64 `json:"commitGen,omitempty"`
	CommitUS  int64  `json:"commitMicros,omitempty"`
}

// AggKey identifies one aggregation cell: everything that determines a
// deterministic measurement.
type AggKey struct {
	Model    string         `json:"model"`
	Query    string         `json:"query"`
	Workload WorkloadParams `json:"workload"`
}

type aggregate struct {
	count     int64
	supported bool
	rawSum    Counters
	perUnit   PerUnit // of the first run; later runs must match
	raw       Counters
	divergent bool
	elapsedUS int64
	maxUS     int64
}

// AggCell is one /stats row: every run of a deterministic cell must be
// identical, so PerUnit/Raw are per-run values and Divergent flags any
// run that broke the determinism contract.
type AggCell struct {
	AggKey
	Count     int64    `json:"count"`
	Supported bool     `json:"supported"`
	Raw       Counters `json:"raw"`
	RawSum    Counters `json:"rawSum"`
	PerUnit   PerUnit  `json:"perUnit"`
	Divergent bool     `json:"divergent"`
	MeanUS    int64    `json:"meanMicros"`
	MaxUS     int64    `json:"maxMicros"`
}

// StatsResponse is the /stats payload. DroppedCells counts runs whose
// distinct workload parameters arrived after the aggregate cap was
// reached (they were served, just not aggregated).
type StatsResponse struct {
	UptimeSeconds float64   `json:"uptimeSeconds"`
	Requests      int64     `json:"requests"`
	Cells         []AggCell `json:"cells"`
	DroppedCells  int64     `json:"droppedCells"`
}

// PoolInfo describes one served model in /info.
type PoolInfo struct {
	Model       string `json:"model"`
	ArenaBytes  int    `json:"arenaBytes"`
	NumPages    int    `json:"numPages"`
	Mapped      bool   `json:"mapped"`
	MaxViews    int    `json:"maxViews"`
	InUse       int    `json:"inUse"`
	Idle        int    `json:"idle"`
	Created     int64  `json:"created"`
	Reused      int64  `json:"reused"`
	Recycled    int64  `json:"recycled"`
	Rebuilt     int64  `json:"rebuilt"`
	Destroyed   int64  `json:"destroyed"`
	Quarantined int64  `json:"quarantined"`
	Stale       int64  `json:"stale"`
	// Gen is the base generation being served (0 until the first commit;
	// advances on every commit, including ones replayed at startup).
	Gen uint64 `json:"gen"`
	// PromotedBytes is what building those generations copied in memory
	// (dirty page images, page tables, metadata); DeltaPages the committed
	// pages the served generation holds on the heap over the arena it was
	// opened with.
	PromotedBytes int64 `json:"promotedBytes"`
	DeltaPages    int   `json:"deltaPages"`
}

// ResilienceInfo is the /info resilience block: the admission/deadline
// envelope and what degradation has cost so far.
type ResilienceInfo struct {
	MaxInflight      int    `json:"maxInflight"` // <= 0: unbounded
	InFlight         int    `json:"inFlight"`
	RequestTimeoutMS int64  `json:"requestTimeoutMillis"` // 0: no deadline
	ShedAdmission    int64  `json:"shedAdmission"`
	ShedDeadline     int64  `json:"shedDeadline"`
	Panics           int64  `json:"panics"`
	QuarantinedViews int64  `json:"quarantinedViews"`
	FaultSpec        string `json:"faultSpec,omitempty"`
	// Faults counts what the armed fault plan has injected (absent
	// without -faults). Injected faults never alter the counters of
	// successful responses.
	Faults *complexobj.FaultStats `json:"faults,omitempty"`
}

// DurabilityInfo is the /info durability block (present only with -wal):
// the write-ahead-log counters behind the durable commit path. Commits
// counts acknowledged commit batches — cobench's write-mode lost-update
// gate compares it against the client-side acknowledgment count.
type DurabilityInfo struct {
	WALDir        string `json:"walDir"`
	Commits       int64  `json:"commits"`
	Syncs         int64  `json:"syncs"`
	AppendedBytes int64  `json:"appendedBytes"`
	// PayloadBytes is the dirty-page image portion of AppendedBytes;
	// WriteAmplification is their ratio (0 until the first payload byte)
	// — the report axis cobench -report carries per write-mode run.
	PayloadBytes       int64   `json:"payloadBytes"`
	WriteAmplification float64 `json:"writeAmplification"`
	// PromotedBytes is the in-memory counterpart of AppendedBytes: the
	// bytes copied to build committed generations, summed over the served
	// models (replayed commits included).
	PromotedBytes   int64  `json:"promotedBytes"`
	WALSizeBytes    int64  `json:"walSizeBytes"`
	LastSeq         uint64 `json:"lastSeq"`
	Checkpoints     int64  `json:"checkpoints"`
	Recovered       int64  `json:"recovered"`
	CheckpointBytes int64  `json:"checkpointBytes"`
}

// InfoResponse is the /info payload.
type InfoResponse struct {
	Snapshot    string         `json:"snapshot"`
	Gen         cobench.Config `json:"gen"`
	PageSize    int            `json:"pageSize"`
	BufferPages int            `json:"bufferPages"`
	Workload    WorkloadParams `json:"defaultWorkload"`
	Models      []PoolInfo     `json:"models"`
	Resilience  ResilienceInfo `json:"resilience"`
	// Durability reports the write-ahead-log state (absent without -wal).
	Durability *DurabilityInfo `json:"durability,omitempty"`
	// Metrics is the structured twin of the /metrics endpoint: process
	// memory plus the per-cell latency split (queue wait vs service
	// time). Latency sits outside the paper's counter accounting.
	Metrics MetricsInfo `json:"metrics"`
	// Sharding reports the backend's place in a scale-out deployment
	// (absent without -shard-map): the map it loaded and the shards —
	// and so models — it currently owns.
	Sharding *ShardingInfo `json:"sharding,omitempty"`
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

// HealthResponse is the /healthz payload. Status is "ok" or "degraded";
// degraded means the admission gate is saturated (new requests queue or
// shed) — the process is still serving, so the HTTP status stays 200 and
// liveness probes keep passing.
type HealthResponse struct {
	Status      string `json:"status"`
	InFlight    int    `json:"inFlight"`
	MaxInflight int    `json:"maxInflight"`
	Shed        int64  `json:"shed"`
	Panics      int64  `json:"panics"`
	Quarantined int64  `json:"quarantinedViews"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	inFlight := 0
	if s.admit != nil {
		inFlight = len(s.admit)
	}
	status := "ok"
	if s.admit != nil && inFlight >= s.maxInflight {
		status = "degraded"
	}
	var quarantined int64
	s.omu.RLock()
	for _, p := range s.pools {
		quarantined += p.Stats().Quarantined
	}
	s.omu.RUnlock()
	writeJSON(w, HealthResponse{
		Status:      status,
		InFlight:    inFlight,
		MaxInflight: s.maxInflight,
		Shed:        s.shedAdmit.Load() + s.shedDeadline.Load(),
		Panics:      s.panics.Load(),
		Quarantined: quarantined,
	})
}

// unavailable reports graceful degradation: 503 with a Retry-After hint,
// the contract cobench's client-side retry loop keys off.
func (s *Server) unavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, format, args...)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	spec := RunSpecFromValues(r.URL.Query())
	kind, q, wl, err := spec.Resolve(s.cfg.Workload)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	commitReq, err := spec.CommitRequested()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if commitReq && s.clog == nil {
		httpError(w, http.StatusBadRequest, "commit requested but the server has no write-ahead log (-wal)")
		return
	}
	// One read-locked snapshot of the ownership state: the pool, the
	// model's commit lock and — for the 421 payload — the shard view. The
	// pool pointer stays valid after the unlock (a released pool fails
	// AcquireContext with ErrPoolClosed, which the 503 below turns into a
	// router retry against the new owner); the lock is never held across
	// the query.
	s.omu.RLock()
	pool, ok := s.pools[kind]
	cmu := s.commitMu[kind]
	sharded := s.smap != nil
	var mapVer uint64
	var ownedIDs []int
	if !ok && sharded {
		mapVer = s.smap.Version
		ownedIDs = append([]int(nil), s.owned...)
	}
	s.omu.RUnlock()
	if !ok {
		if sharded {
			// 421 Misdirected Request: the model exists but lives on another
			// backend — the structured signal coshard re-resolves on, kept
			// distinct from 400 (bad request) and 503 (retry here later).
			misdirected(w, kind, mapVer, ownedIDs)
			return
		}
		httpError(w, http.StatusBadRequest, "model %s is not served", kind)
		return
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	// Server-wide admission: the global envelope on top of the per-model
	// view semaphores. A full gate queues the request until a slot frees
	// or its deadline expires — then sheds it with 503 + Retry-After, the
	// signal a well-behaved client (cobench's retry loop) backs off on.
	// arrived anchors the queue-wait half of the latency split: admission
	// wait plus view-pool wait, everything spent before the query owns an
	// engine.
	arrived := time.Now()
	if s.admit != nil {
		select {
		case s.admit <- struct{}{}:
			defer func() { <-s.admit }()
		case <-ctx.Done():
			s.shedAdmit.Add(1)
			s.unavailable(w, "admission: %d requests in flight: %v", s.maxInflight, ctx.Err())
			return
		}
	}

	// A committing request holds the model's commit lock across
	// acquire→run→commit: View.Commit requires commits per base to be
	// serialized (two views of the same generation racing Promote would
	// fail one of them after its durable log append). Read-only requests
	// never touch the lock.
	if commitReq {
		cmu.Lock()
		defer cmu.Unlock()
	}

	start := time.Now()
	view, err := pool.AcquireContext(ctx)
	queueWait := time.Since(arrived)
	if err != nil {
		if ctx.Err() != nil {
			s.shedDeadline.Add(1)
			s.unavailable(w, "acquire view: %v", err)
			return
		}
		httpError(w, http.StatusServiceUnavailable, "acquire view: %v", err)
		return
	}
	// Run with panic containment: a panicking query path (an injected
	// backend panic, a latent bug) becomes a structured 500 and the view
	// is quarantined — closed for good, never recycled — so whatever the
	// panic left behind cannot leak into a later request. The engine's
	// deferred mutex unlocks make Close after an unwound panic safe.
	res, err := func() (res complexobj.QueryResult, err error) {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				view.Quarantine()
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return view.RunContext(ctx, q, wl)
	}()
	if err != nil && complexobj.IsPermanentFault(err) {
		// The engine has a poisoned page; recycling would hand the next
		// request a view that can never read it. Retire it instead.
		view.Quarantine()
	}
	// Commit while the view is still alive, after a successful run. The
	// response is written only once the WAL fsync acknowledged the batch
	// — a client that saw committed:true finds the update after any
	// crash. A failed commit quarantines the view (its overlay may be
	// half-promoted state) and fails the request.
	var commit complexobj.CommitInfo
	var commitUS int64
	if err == nil && commitReq {
		cs := time.Now()
		commit, err = view.Commit(s.clog)
		commitUS = time.Since(cs).Microseconds()
		if err != nil {
			view.Quarantine()
			err = fmt.Errorf("commit: %w", err)
		} else {
			s.commits.Add(1)
			s.commitLat.observe(kind.String(), "commit", 0, time.Duration(commitUS)*time.Microsecond)
		}
	}
	if cerr := view.Close(); cerr != nil {
		// The request measured fine; a failed recycle only cost the pool
		// a view (visible as Destroyed in /info) — log it rather than
		// failing the response.
		log.Printf("server: %s %s: view recycle: %v", kind, q, cerr)
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.shedDeadline.Add(1)
			s.unavailable(w, "run %s %s: %v", kind, q, err)
			return
		}
		if errors.Is(err, context.Canceled) {
			// The client went away; nobody reads this response. Report it
			// as unavailable without counting it against the deadline
			// budget.
			s.unavailable(w, "run %s %s: %v", kind, q, err)
			return
		}
		httpError(w, http.StatusInternalServerError, "run %s %s: %v", kind, q, err)
		return
	}
	elapsed := time.Since(start).Microseconds()
	s.requests.Add(1)

	resp := RunResponse{
		Model:     res.Model.String(),
		Query:     res.Query.String(),
		Supported: res.Supported,
		Units:     res.Units,
		Workload:  WorkloadParams{Loops: wl.Loops, Samples: wl.Samples, Seed: wl.Seed},
		Raw:       toCounters(res.Raw),
		PerUnit:   toPerUnit(res),
		ElapsedUS: elapsed,
	}
	if commitReq {
		resp.Committed = true
		resp.CommitSeq = commit.Seq
		resp.CommitGen = commit.Gen
		resp.CommitUS = commitUS
		// Size-triggered compaction: bound the log — and the replay work
		// a crash inherits — without a background goroutine. Failure is
		// logged, not returned: the commit itself is already durable.
		if ran, cperr := s.clog.MaybeCheckpoint(s.cfg.CheckpointBytes); cperr != nil {
			log.Printf("server: checkpoint after %s commit: %v", kind, cperr)
		} else if ran {
			log.Printf("server: checkpointed write-ahead log (%s)", s.cfg.WALDir)
		}
	}
	s.record(resp)
	// Latency split, recorded on exactly the runs /stats aggregates:
	// queue wait measured here (admission + pool), service time stamped
	// by the workload runner around the query itself.
	s.lat.observe(resp.Model, resp.Query, queueWait, res.Elapsed)
	writeJSON(w, resp)
}

// maxAggCells bounds the aggregate map: the legitimate key space (model ×
// query × a handful of workloads) is tiny, but workload parameters come
// from the request, so without a cap a caller sweeping seeds would grow
// server memory without bound. Runs beyond the cap are still served and
// counted in Requests; only their per-cell aggregation is dropped
// (reported as DroppedCells in /stats).
const maxAggCells = 4096

// record folds one run into the aggregates and flags divergence: a
// deterministic cell must produce identical counters on every run.
func (s *Server) record(r RunResponse) {
	key := AggKey{Model: r.Model, Query: r.Query, Workload: r.Workload}
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.agg[key]
	if !ok {
		if len(s.agg) >= maxAggCells {
			s.aggDropped++
			return
		}
		a = &aggregate{supported: r.Supported, perUnit: r.PerUnit, raw: r.Raw}
		s.agg[key] = a
	}
	a.count++
	a.rawSum.add(r.Raw)
	a.elapsedUS += r.ElapsedUS
	if r.ElapsedUS > a.maxUS {
		a.maxUS = r.ElapsedUS
	}
	if r.Raw != a.raw || r.PerUnit != a.perUnit || r.Supported != a.supported {
		a.divergent = true
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	dropped := s.aggDropped
	cells := make([]AggCell, 0, len(s.agg))
	for key, a := range s.agg {
		cells = append(cells, AggCell{
			AggKey:    key,
			Count:     a.count,
			Supported: a.supported,
			Raw:       a.raw,
			RawSum:    a.rawSum,
			PerUnit:   a.perUnit,
			Divergent: a.divergent,
			MeanUS:    a.elapsedUS / a.count,
			MaxUS:     a.maxUS,
		})
	}
	s.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		// Same cell under different workload parameters: order those too,
		// so repeated /stats reads are byte-comparable.
		if a.Workload.Loops != b.Workload.Loops {
			return a.Workload.Loops < b.Workload.Loops
		}
		if a.Workload.Samples != b.Workload.Samples {
			return a.Workload.Samples < b.Workload.Samples
		}
		return a.Workload.Seed < b.Workload.Seed
	})
	writeJSON(w, StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Cells:         cells,
		DroppedCells:  dropped,
	})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	resp := InfoResponse{
		Snapshot:    s.cfg.Snapshot,
		Gen:         s.info.Gen,
		PageSize:    s.info.PageSize,
		BufferPages: s.cfg.BufferPages,
		Workload: WorkloadParams{
			Loops: s.cfg.Workload.Loops, Samples: s.cfg.Workload.Samples, Seed: s.cfg.Workload.Seed,
		},
	}
	var quarantined, promoted int64
	s.omu.RLock()
	resp.Sharding = s.shardingInfoLocked()
	for _, k := range s.models {
		base, pool := s.bases[k], s.pools[k]
		ps := pool.Stats()
		quarantined += ps.Quarantined
		copied := base.PromotedBytes()
		promoted += copied
		resp.Models = append(resp.Models, PoolInfo{
			Model:       k.String(),
			ArenaBytes:  base.ArenaBytes(),
			NumPages:    base.NumPages(),
			Mapped:      base.Mapped(),
			MaxViews:    ps.MaxViews,
			InUse:       ps.InUse,
			Idle:        ps.Idle,
			Created:     ps.Created,
			Reused:      ps.Reused,
			Recycled:    ps.Recycled,
			Rebuilt:     ps.Rebuilt,
			Destroyed:   ps.Destroyed,
			Quarantined: ps.Quarantined,
			Stale:       ps.Stale,
			Gen:         base.Gen(),

			PromotedBytes: copied,
			DeltaPages:    base.DeltaPages(),
		})
	}
	s.omu.RUnlock()
	if s.clog != nil {
		cs := s.clog.Stats()
		resp.Durability = &DurabilityInfo{
			WALDir:          cs.Dir,
			Commits:         cs.Commits,
			Syncs:           cs.Syncs,
			AppendedBytes:   cs.AppendedBytes,
			PayloadBytes:    cs.PayloadBytes,
			PromotedBytes:   promoted,
			WALSizeBytes:    cs.SizeBytes,
			LastSeq:         cs.LastSeq,
			Checkpoints:     cs.Checkpoints,
			Recovered:       cs.Recovered,
			CheckpointBytes: s.cfg.CheckpointBytes,
		}
		if cs.PayloadBytes > 0 {
			resp.Durability.WriteAmplification = float64(cs.AppendedBytes) / float64(cs.PayloadBytes)
		}
	}
	resp.Resilience = ResilienceInfo{
		MaxInflight:      s.maxInflight,
		RequestTimeoutMS: s.cfg.RequestTimeout.Milliseconds(),
		ShedAdmission:    s.shedAdmit.Load(),
		ShedDeadline:     s.shedDeadline.Load(),
		Panics:           s.panics.Load(),
		QuarantinedViews: quarantined,
	}
	if s.admit != nil {
		resp.Resilience.InFlight = len(s.admit)
	}
	if s.cfg.Faults != nil {
		fs := s.cfg.Faults.Stats()
		resp.Resilience.FaultSpec = s.cfg.Faults.String()
		resp.Resilience.Faults = &fs
	}
	resp.Metrics = s.metricsInfo()
	writeJSON(w, resp)
}
