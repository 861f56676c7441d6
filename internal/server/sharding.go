package server

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"complexobj"
	"complexobj/internal/shard"
)

// The sharding layer partitions the model address table across backends
// (internal/shard). It lives entirely outside the paper's counted I/O:
// a backend measures exactly what a single node would for the models it
// owns, so the union of the shards' /stats cells is bit-identical to the
// single-node cell set (docs/PAPER_MAP.md).
//
// The rebalance protocol makes a segment handoff between two live
// backends a file open + mmap, never a copy or a restart:
//
//  1. the new owner opens the shard's segment (POST /shards/acquire) —
//     both backends serve the shard for a moment, measuring identically
//     off the same frozen bytes;
//  2. the router repoints the shard (POST /map/assign on coshard);
//  3. the old owner drops it (POST /shards/release) — its in-flight
//     requests finish on the views they hold, later arrivals get 421
//     Misdirected Request and the router re-resolves.
//
// No request is lost at any interleaving: at every step at least one
// backend answers 200 for the shard's models, and every failure mode a
// racing request can hit (421, a closing pool) is retried by the router
// against the then-current owner.

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

// ShardingInfo is the /info sharding block of a sharded backend.
type ShardingInfo struct {
	MapPath    string   `json:"mapPath"`
	MapVersion uint64   `json:"mapVersion"`
	Shards     []int    `json:"shards"`
	Models     []string `json:"models"`
}

// ShardChangeResponse answers /shards/acquire and /shards/release.
type ShardChangeResponse struct {
	Shard      int      `json:"shard"`
	Models     []string `json:"models"`
	Shards     []int    `json:"shards"` // owned after the change
	MapVersion uint64   `json:"mapVersion"`
}

// segmentPath resolves a shard's .codb segment: the map's segment
// relative to the map file's directory (absolute paths pass through), or
// the full snapshot when the shard has no segment of its own.
func segmentPath(mapPath, snapshot string, sh *shard.Shard) (string, error) {
	if sh.Segment == "" {
		if snapshot == "" {
			return "", fmt.Errorf("server: shard %d has no segment and no -db snapshot fallback", sh.ID)
		}
		return snapshot, nil
	}
	if filepath.IsAbs(sh.Segment) {
		return sh.Segment, nil
	}
	return filepath.Join(filepath.Dir(mapPath), sh.Segment), nil
}

// shardedInfo resolves the deployment identity (generator config, page
// size) for a sharded backend: the first owned model's segment, else any
// segment in the map, else the snapshot fallback. Extract copies the
// snapshot header verbatim, so every segment of one split agrees.
func shardedInfo(cfg Config, smap *shard.Map, models []complexobj.ModelKind,
	segments map[complexobj.ModelKind]string) (complexobj.SnapshotInfo, error) {
	if len(models) > 0 {
		return complexobj.StatSnapshot(segments[models[0]])
	}
	for i := range smap.Shards {
		if sh := &smap.Shards[i]; len(sh.Models) > 0 {
			seg, err := segmentPath(cfg.ShardMap, cfg.Snapshot, sh)
			if err != nil {
				return complexobj.SnapshotInfo{}, err
			}
			return complexobj.StatSnapshot(seg)
		}
	}
	return complexobj.SnapshotInfo{}, fmt.Errorf("server: %s owns no models", cfg.ShardMap)
}

// shardingInfoLocked builds the /info block; omu held (any mode).
func (s *Server) shardingInfoLocked() *ShardingInfo {
	if s.smap == nil {
		return nil
	}
	out := &ShardingInfo{
		MapPath:    s.cfg.ShardMap,
		MapVersion: s.smap.Version,
		Shards:     append([]int(nil), s.owned...),
	}
	for _, k := range s.models {
		out.Models = append(out.Models, k.String())
	}
	return out
}

// ownsLocked reports whether shard id is currently owned; omu held.
func (s *Server) ownsLocked(id int) bool {
	for _, o := range s.owned {
		if o == id {
			return true
		}
	}
	return false
}

// AcquireShard opens the shard's models from its segment and starts
// serving them — step one of a handoff, run on the new owner while the
// old one still serves. The shard map is reloaded from disk first, so a
// rebalance that rewrote it (new version, new segment paths) takes effect
// here. segment, when non-empty, overrides the map's segment path.
// Acquiring an already-owned shard is a no-op (idempotent retries).
func (s *Server) AcquireShard(id int, segment string) (ShardChangeResponse, error) {
	s.omu.Lock()
	defer s.omu.Unlock()
	if s.smap == nil {
		return ShardChangeResponse{}, fmt.Errorf("server: not sharded (start with -shard-map)")
	}
	if s.clog != nil {
		return ShardChangeResponse{}, fmt.Errorf("server: shard rebalance of a durable (-wal) backend is not supported")
	}
	if m, err := shard.Load(s.cfg.ShardMap); err == nil {
		s.smap = m
	} else {
		return ShardChangeResponse{}, fmt.Errorf("server: reload shard map: %w", err)
	}
	sh, ok := s.smap.Shard(id)
	if !ok {
		return ShardChangeResponse{}, fmt.Errorf("server: no shard %d in %s", id, s.cfg.ShardMap)
	}
	resp := ShardChangeResponse{Shard: id, MapVersion: s.smap.Version,
		Models: append([]string(nil), sh.Models...)}
	if s.ownsLocked(id) {
		resp.Shards = append([]int(nil), s.owned...)
		return resp, nil
	}
	seg := segment
	if seg == "" {
		var err error
		if seg, err = segmentPath(s.cfg.ShardMap, s.cfg.Snapshot, sh); err != nil {
			return ShardChangeResponse{}, err
		}
	}
	var added []complexobj.ModelKind
	for _, name := range sh.Models {
		k, err := complexobj.ModelByName(name)
		if err == nil && s.pools[k] != nil {
			err = fmt.Errorf("server: model %s already served (shard overlap)", k)
		}
		if err == nil {
			err = s.openModelLocked(k, seg)
		}
		if err != nil {
			for _, a := range added {
				s.closeModelLocked(a)
			}
			return ShardChangeResponse{}, fmt.Errorf("server: acquire shard %d: %w", id, err)
		}
		added = append(added, k)
	}
	s.models = append(s.models, added...)
	sortModels(s.models)
	s.owned = append(s.owned, id)
	sort.Ints(s.owned)
	resp.Shards = append([]int(nil), s.owned...)
	return resp, nil
}

// ReleaseShard stops serving the shard's models and releases their bases
// — the final step of a handoff, run on the old owner after the router
// repointed the shard. Requests already holding a view finish unharmed
// (views pin their base); ones that race the release get 421 or a
// closing-pool 503 and are re-routed. Releasing an unowned shard is an
// error: it means the handoff protocol was run out of order.
func (s *Server) ReleaseShard(id int) (ShardChangeResponse, error) {
	s.omu.Lock()
	defer s.omu.Unlock()
	if s.smap == nil {
		return ShardChangeResponse{}, fmt.Errorf("server: not sharded (start with -shard-map)")
	}
	if s.clog != nil {
		return ShardChangeResponse{}, fmt.Errorf("server: shard rebalance of a durable (-wal) backend is not supported")
	}
	if !s.ownsLocked(id) {
		return ShardChangeResponse{}, fmt.Errorf("server: shard %d is not owned (owned: %v)", id, s.owned)
	}
	sh, ok := s.smap.Shard(id)
	if !ok {
		return ShardChangeResponse{}, fmt.Errorf("server: no shard %d in %s", id, s.cfg.ShardMap)
	}
	resp := ShardChangeResponse{Shard: id, MapVersion: s.smap.Version,
		Models: append([]string(nil), sh.Models...)}
	for _, name := range sh.Models {
		k, err := complexobj.ModelByName(name)
		if err != nil {
			return ShardChangeResponse{}, fmt.Errorf("server: release shard %d: %w", id, err)
		}
		s.closeModelLocked(k)
	}
	keepM := s.models[:0]
	for _, k := range s.models {
		if s.pools[k] != nil {
			keepM = append(keepM, k)
		}
	}
	s.models = keepM
	keepO := s.owned[:0]
	for _, o := range s.owned {
		if o != id {
			keepO = append(keepO, o)
		}
	}
	s.owned = keepO
	resp.Shards = append([]int(nil), s.owned...)
	return resp, nil
}

// sortModels keeps the served-model listing deterministic as shards come
// and go (the paper's model order, like AllModels).
func sortModels(models []complexobj.ModelKind) {
	sort.Slice(models, func(i, j int) bool { return models[i] < models[j] })
}

// handleShardAcquire serves POST /shards/acquire?shard=N[&segment=PATH].
func (s *Server) handleShardAcquire(w http.ResponseWriter, r *http.Request) {
	id, ok := s.shardParam(w, r)
	if !ok {
		return
	}
	resp, err := s.AcquireShard(id, r.URL.Query().Get("segment"))
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, resp)
}

// handleShardRelease serves POST /shards/release?shard=N.
func (s *Server) handleShardRelease(w http.ResponseWriter, r *http.Request) {
	id, ok := s.shardParam(w, r)
	if !ok {
		return
	}
	resp, err := s.ReleaseShard(id)
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, resp)
}

// shardParam validates the method and the shard parameter of the two
// rebalance endpoints. Mutating ownership is POST-only: a GET must never
// change what a backend serves.
func (s *Server) shardParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "%s needs POST", r.URL.Path)
		return 0, false
	}
	id, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad shard %q", r.URL.Query().Get("shard"))
		return 0, false
	}
	return id, true
}

// misdirected writes the 421 payload for a model this backend does not
// own; ver/owned are the backend's view of the map at rejection time.
func misdirected(w http.ResponseWriter, kind complexobj.ModelKind, ver uint64, owned []int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusMisdirectedRequest)
	json.NewEncoder(w).Encode(NotOwnedResponse{
		Error:       fmt.Sprintf("model %s is not owned by this backend (shards %v, map version %d)", kind, owned, ver),
		NotOwned:    true,
		Model:       kind.String(),
		MapVersion:  ver,
		OwnedShards: owned,
	})
}

// openModelLocked opens one model's shared base from seg (through the
// commit log when durable) and its view pool; omu held (or the server
// exclusively owned, as in New).
func (s *Server) openModelLocked(k complexobj.ModelKind, seg string) error {
	opts := complexobj.Options{BufferPages: s.cfg.BufferPages, Faults: s.cfg.Faults}
	var base *complexobj.Base
	var err error
	if s.clog != nil {
		base, err = s.clog.OpenBase(k, seg)
	} else {
		base, err = complexobj.OpenBase(seg, k)
	}
	if err != nil {
		return fmt.Errorf("server: open base %s: %w", k, err)
	}
	pool, err := complexobj.NewViewPool(base, opts, s.cfg.MaxViews)
	if err != nil {
		base.Close()
		return fmt.Errorf("server: pool %s: %w", k, err)
	}
	s.bases[k] = base
	s.pools[k] = pool
	s.segments[k] = seg
	if s.clog != nil && s.commitMu[k] == nil {
		s.commitMu[k] = new(sync.Mutex)
	}
	return nil
}

// closeModelLocked stops serving one model: the pool closes (idle views
// destroyed, in-flight ones destroyed on release, pending acquires fail
// with ErrPoolClosed) and the base handle drops its arena reference —
// the mapping itself lives until the last in-flight view releases.
// omu held. Errors are logged, not returned: release must converge.
func (s *Server) closeModelLocked(k complexobj.ModelKind) {
	if p := s.pools[k]; p != nil {
		if err := p.Close(); err != nil {
			log.Printf("server: close pool %s: %v", k, err)
		}
		delete(s.pools, k)
	}
	if b := s.bases[k]; b != nil {
		if err := b.Close(); err != nil {
			log.Printf("server: close base %s: %v", k, err)
		}
		delete(s.bases, k)
	}
	delete(s.segments, k)
	delete(s.commitMu, k)
}
