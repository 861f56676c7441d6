package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/iostat"
	"complexobj/internal/metrics"
)

// Every JSON payload the server writes, which cobench, coshard and bench/
// decode by field name. encoding/json emits fields in declaration order,
// so the order here is the wire order (TestWireGolden holds both).

// WorkloadParams identifies the workload knobs of a request (and so of an
// aggregation cell).
type WorkloadParams struct {
	Loops   int    `json:"loops"`
	Samples int    `json:"samples"`
	Seed    uint64 `json:"seed"`
}

// Counters are the raw I/O counters and PerUnit the normalized ones, the
// numbers of the paper's tables: the engine's own types, which carry the
// wire names.
type (
	Counters = iostat.Stats
	PerUnit  = iostat.PerUnit
)

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

// AggCell is one /stats row: every run of a deterministic cell must be
// identical, so PerUnit/Raw are per-run values and Divergent flags any
// run that broke the determinism contract. Fold (stats.go) is the only
// code that builds one up.
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

	// sumUS is the exact elapsed total behind MeanUS while the cell lives
	// in a process; it does not cross the wire (a decoded cell's total is
	// MeanUS × Count, see Fold).
	sumUS int64
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
	Model      string `json:"model"`
	ArenaBytes int    `json:"arenaBytes"`
	NumPages   int    `json:"numPages"`
	Mapped     bool   `json:"mapped"`
	// The view pool's counters, maxViews … stale.
	complexobj.ViewPoolStats
	// Gen is the base generation being served (0 until the first commit;
	// advances on every commit, including ones replayed at startup).
	Gen uint64 `json:"gen"`
	// PromotedBytes is what building those generations copied in memory
	// (dirty page images, page tables, metadata); DeltaPages the committed
	// pages the served generation holds over the arena it was opened with
	// (off the Go heap, in its branch's page pool).
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

// ShardingInfo is the /info sharding block of a sharded backend.
type ShardingInfo struct {
	MapPath    string   `json:"mapPath"`
	MapVersion uint64   `json:"mapVersion"`
	Shards     []int    `json:"shards"`
	Models     []string `json:"models"`
}

// CellLatency is the /info latency block of one (model, query) cell.
type CellLatency struct {
	Model    string          `json:"model"`
	Query    string          `json:"query"`
	Requests int64           `json:"requests"`
	Queue    metrics.Summary `json:"queueWait"`
	Service  metrics.Summary `json:"service"`
}

// MetricsInfo is the structured twin of the /metrics endpoint inside
// /info: process memory plus the per-cell latency summaries. The
// Prometheus text rendering and this block read the same histograms.
type MetricsInfo struct {
	Process metrics.ProcStats `json:"process"`
	Cells   []CellLatency     `json:"cells"`
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

// NotOwnedResponse is the 421 Misdirected Request payload a sharded
// backend rejects out-of-shard models with: the structured signal the
// router re-resolves ownership on (and any other client can route by).
type NotOwnedResponse struct {
	Error       string `json:"error"`
	NotOwned    bool   `json:"notOwned"`
	Model       string `json:"model"`
	MapVersion  uint64 `json:"mapVersion"`
	OwnedShards []int  `json:"ownedShards"`
}

// ShardChangeResponse answers /shards/acquire and /shards/release.
type ShardChangeResponse struct {
	Shard      int      `json:"shard"`
	Models     []string `json:"models"`
	Shards     []int    `json:"shards"` // owned after the change
	MapVersion uint64   `json:"mapVersion"`
}

// ErrorResponse is the body of every plain error status the server and
// coshard answer with.
type ErrorResponse struct {
	Error string `json:"error"`
}

// contentTypeJSON is the Content-Type of every JSON payload: one slice
// shared by all responses, which net/http only reads.
var contentTypeJSON = []string{"application/json"}

// jsonWriter is one response on its way out: the payload is encoded whole
// into buf and sent with one Write. Writers are pooled, so the encoder,
// its buffer and the /run payload in run are allocated once, not per
// request.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
	run RunResponse
}

var jsonWriters = sync.Pool{New: func() any {
	jw := new(jsonWriter)
	jw.enc = json.NewEncoder(&jw.buf)
	return jw
}}

func getJSONWriter() *jsonWriter { return jsonWriters.Get().(*jsonWriter) }

// write answers with status code and v: the bytes json.NewEncoder(w).Encode
// writes — the document and a newline — or an empty body when v does not
// encode.
func (jw *jsonWriter) write(w http.ResponseWriter, code int, v any) {
	jw.buf.Reset()
	err := jw.enc.Encode(v)
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(code)
	if err == nil {
		w.Write(jw.buf.Bytes())
	}
}

// release returns jw to the pool. Under the poison tag its bytes read 0xDB
// from then on, so a ResponseWriter that kept the slice Write handed it
// fails loudly instead of reading a later response.
func (jw *jsonWriter) release() {
	if poison {
		b := jw.buf.Bytes()
		for i := range b {
			b[i] = 0xDB
		}
		jw.run = RunResponse{}
	}
	jsonWriters.Put(jw)
}

// WriteJSON answers with status code and v encoded as JSON: the one writer
// of every payload the server and coshard send.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	jw := getJSONWriter()
	jw.write(w, code, v)
	jw.release()
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// unavailable reports graceful degradation: 503 with a Retry-After hint,
// the contract cobench's client-side retry loop keys off.
func unavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, format, args...)
}
