package server

import (
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"

	"complexobj"
	"complexobj/internal/shard"
)

// Which models this server serves, and how that set changes. An
// unsharded server's set is fixed at startup. The sharding layer
// partitions the model address table across backends (internal/shard)
// and lives entirely outside the paper's counted I/O: a backend measures
// exactly what a single node would for the models it owns, so the union
// of the shards' /stats cells is bit-identical to the single-node cell
// set (docs/PAPER_MAP.md).
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

// served is one served model (see doc.go): created and retired as a unit
// under omu, used by the requests that looked it up beyond the unlock.
type served struct {
	base *complexobj.Base
	pool *complexobj.ViewPool
	// commitMu is held across lease → execute → commit by a commit=1
	// request, so no other commit lands between its lease and its commit:
	// its view is never stale and the commit is never refused for it.
	// Without it nothing unsafe happens — the base's publish lock refuses
	// a stale view before anything is logged — but racing commit requests
	// would fail. Read-only requests never touch it.
	commitMu sync.Mutex
}

// openModelsLocked starts serving kinds from seg as one batch, all or
// none: their bases plus a view pool each; omu held. A read-only server
// opens them from seg, a durable one through the commit log, from each
// kind's checkpoint or the seed; either way the snapshot reader maps each
// stored entry once and stands every kind it holds on that floor with a
// base, and a lineage, of its own.
func (s *Server) openModelsLocked(kinds []complexobj.ModelKind, seg string) error {
	if len(kinds) == 0 {
		return nil
	}
	for i, k := range kinds {
		if s.models[k] != nil || slices.Contains(kinds[:i], k) {
			return fmt.Errorf("server: model %s already served (shard overlap)", k)
		}
	}
	if seg == "" {
		return fmt.Errorf("server: model %s has no segment and no -db snapshot fallback", kinds[0])
	}
	var bases []*complexobj.Base
	var err error
	if s.clog != nil {
		for _, k := range kinds {
			var b *complexobj.Base
			if b, err = s.clog.OpenBase(k, seg); err != nil {
				err = fmt.Errorf("server: open base %s: %w", k, err)
				break
			}
			bases = append(bases, b)
		}
	} else if bases, err = complexobj.OpenBases(seg, kinds); err != nil {
		err = fmt.Errorf("server: open bases %v: %w", kinds, err)
	}
	opts := complexobj.Options{BufferPages: s.cfg.BufferPages, Faults: s.cfg.Faults}
	for i := 0; err == nil && i < len(kinds); i++ {
		var pool *complexobj.ViewPool
		if pool, err = complexobj.NewViewPool(bases[i], opts, s.cfg.MaxViews); err != nil {
			err = fmt.Errorf("server: pool %s: %w", kinds[i], err)
			break
		}
		s.models[kinds[i]] = &served{base: bases[i], pool: pool}
	}
	if err != nil {
		for i, b := range bases {
			if s.models[kinds[i]] != nil {
				s.closeModelLocked(kinds[i])
			} else {
				b.Close()
			}
		}
	}
	return err
}

// closeModelLocked stops serving one model: the pool closes (idle views
// destroyed, in-flight ones destroyed on release, pending acquires fail
// with ErrPoolClosed) and the base handle drops its arena reference —
// the mapping itself lives until the last in-flight view releases. It
// always retires the record and returns the first error; omu held.
func (s *Server) closeModelLocked(k complexobj.ModelKind) error {
	m := s.models[k]
	if m == nil {
		return nil
	}
	delete(s.models, k)
	err := m.pool.Close()
	if berr := m.base.Close(); err == nil {
		err = berr
	}
	return err
}

// lookup is the request path's one reading of the ownership state: the
// model's record, or — when it is not served here — what the 421 payload
// says about this backend (sharded reports whether there is a map at all).
func (s *Server) lookup(k complexobj.ModelKind) (m *served, sharded bool, mapVersion uint64, owned []int) {
	s.omu.RLock()
	defer s.omu.RUnlock()
	if m = s.models[k]; m != nil || s.smap == nil {
		return m, s.smap != nil, 0, nil
	}
	return nil, true, s.smap.Version, append([]int(nil), s.owned...)
}

// servedLocked lists the served kinds in the paper's model order (like
// AllModels), whatever order shards came and went in; omu held.
func (s *Server) servedLocked() []complexobj.ModelKind {
	kinds := make([]complexobj.ModelKind, 0, len(s.models))
	for k := range s.models {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// resolveShardLocked is the one place a shard of the loaded map becomes
// what the server acts on: the .codb segment its models open from — the
// map's segment relative to the map file's directory (absolute paths pass
// through), or the full snapshot when the shard has none of its own — and
// the kinds its model names denote. omu held (or, as everywhere below,
// the server not yet shared: New).
func (s *Server) resolveShardLocked(id int) (sh *shard.Shard, seg string, kinds []complexobj.ModelKind, err error) {
	sh, ok := s.smap.Shard(id)
	if !ok {
		return nil, "", nil, fmt.Errorf("server: no shard %d in %s", id, s.cfg.ShardMap)
	}
	switch {
	case sh.Segment == "":
		seg = s.cfg.Snapshot
	case filepath.IsAbs(sh.Segment):
		seg = sh.Segment
	default:
		seg = filepath.Join(filepath.Dir(s.cfg.ShardMap), sh.Segment)
	}
	for _, name := range sh.Models {
		k, err := complexobj.ModelByName(name)
		if err != nil {
			return nil, "", nil, fmt.Errorf("server: shard %d: %w", id, err)
		}
		kinds = append(kinds, k)
	}
	return sh, seg, kinds, nil
}

// identity resolves what the deployment serves (generator config, page
// size, model list): the snapshot's header, or for a sharded backend the
// header of the first segment that holds models — the configured shards
// first, then any shard of the map, which covers a standby that starts
// owning nothing. Extract copies the snapshot header verbatim, so every
// segment of one split agrees.
func (s *Server) identity() (complexobj.SnapshotInfo, error) {
	if s.smap == nil {
		return complexobj.StatSnapshot(s.cfg.Snapshot)
	}
	ids := append([]int(nil), s.cfg.Shards...)
	for _, sh := range s.smap.Shards {
		ids = append(ids, sh.ID)
	}
	for _, id := range ids {
		_, seg, kinds, err := s.resolveShardLocked(id)
		if err != nil {
			return complexobj.SnapshotInfo{}, err
		}
		if len(kinds) > 0 {
			if seg == "" {
				return complexobj.SnapshotInfo{}, fmt.Errorf("server: shard %d has no segment and no -db snapshot fallback", id)
			}
			return complexobj.StatSnapshot(seg)
		}
	}
	return complexobj.SnapshotInfo{}, fmt.Errorf("server: %s owns no models", s.cfg.ShardMap)
}

// serveShardLocked opens the shard's models — all of them or none, as
// one batch — and marks the shard owned; an already-owned shard is left
// as it is (idempotent retries). segment, when non-empty, overrides the
// map's segment path. omu held.
func (s *Server) serveShardLocked(id int, segment string) (*shard.Shard, error) {
	sh, seg, kinds, err := s.resolveShardLocked(id)
	if err != nil || s.ownsLocked(id) {
		return sh, err
	}
	if segment != "" {
		seg = segment
	}
	if err := s.openModelsLocked(kinds, seg); err != nil {
		return nil, fmt.Errorf("server: acquire shard %d: %w", id, err)
	}
	s.own(id)
	return sh, nil
}

// own marks shard id owned; omu held.
func (s *Server) own(id int) {
	if !s.ownsLocked(id) {
		s.owned = append(s.owned, id)
		sort.Ints(s.owned)
	}
}

// rebalanceLocked refuses an ownership change this server cannot make.
func (s *Server) rebalanceLocked() error {
	if s.smap == nil {
		return fmt.Errorf("server: not sharded (start with -shard-map)")
	}
	if s.clog != nil {
		return fmt.Errorf("server: shard rebalance of a durable (-wal) backend is not supported")
	}
	return nil
}

// shardChangeLocked renders the answer to an ownership change.
func (s *Server) shardChangeLocked(sh *shard.Shard) ShardChangeResponse {
	return ShardChangeResponse{
		Shard:      sh.ID,
		Models:     append([]string(nil), sh.Models...),
		Shards:     append([]int(nil), s.owned...),
		MapVersion: s.smap.Version,
	}
}

// ownsLocked reports whether shard id is currently owned; omu held.
func (s *Server) ownsLocked(id int) bool {
	i := sort.SearchInts(s.owned, id)
	return i < len(s.owned) && s.owned[i] == id
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
	if err := s.rebalanceLocked(); err != nil {
		return ShardChangeResponse{}, err
	}
	m, err := shard.Load(s.cfg.ShardMap)
	if err != nil {
		return ShardChangeResponse{}, fmt.Errorf("server: reload shard map: %w", err)
	}
	s.smap = m
	sh, err := s.serveShardLocked(id, segment)
	if err != nil {
		return ShardChangeResponse{}, err
	}
	return s.shardChangeLocked(sh), nil
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
	if err := s.rebalanceLocked(); err != nil {
		return ShardChangeResponse{}, err
	}
	if !s.ownsLocked(id) {
		return ShardChangeResponse{}, fmt.Errorf("server: shard %d is not owned (owned: %v)", id, s.owned)
	}
	sh, _, kinds, err := s.resolveShardLocked(id)
	if err != nil {
		return ShardChangeResponse{}, fmt.Errorf("server: release shard %d: %w", id, err)
	}
	for _, k := range kinds {
		// Errors are logged, not returned: release must converge.
		if err := s.closeModelLocked(k); err != nil {
			log.Printf("server: release %s: %v", k, err)
		}
	}
	i := sort.SearchInts(s.owned, id)
	s.owned = append(s.owned[:i], s.owned[i+1:]...)
	return s.shardChangeLocked(sh), nil
}

// handleShardAcquire serves POST /shards/acquire?shard=N[&segment=PATH].
func (s *Server) handleShardAcquire(w http.ResponseWriter, r *http.Request) {
	s.handleShardChange(w, r, func(id int) (ShardChangeResponse, error) {
		return s.AcquireShard(id, r.URL.Query().Get("segment"))
	})
}

// handleShardRelease serves POST /shards/release?shard=N.
func (s *Server) handleShardRelease(w http.ResponseWriter, r *http.Request) {
	s.handleShardChange(w, r, s.ReleaseShard)
}

// handleShardChange validates the method and the shard parameter of the
// two rebalance endpoints and answers with the change (409 when it is
// refused). Mutating ownership is POST-only: a GET must never change what
// a backend serves.
func (s *Server) handleShardChange(w http.ResponseWriter, r *http.Request, change func(id int) (ShardChangeResponse, error)) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "%s needs POST", r.URL.Path)
		return
	}
	id, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad shard %q", r.URL.Query().Get("shard"))
		return
	}
	resp, err := change(id)
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// misdirected writes the 421 payload for a model this backend does not
// own; ver/owned are the backend's view of the map at rejection time.
func misdirected(w http.ResponseWriter, kind complexobj.ModelKind, ver uint64, owned []int) {
	WriteJSON(w, http.StatusMisdirectedRequest, NotOwnedResponse{
		Error:       fmt.Sprintf("model %s is not owned by this backend (shards %v, map version %d)", kind, owned, ver),
		NotOwned:    true,
		Model:       kind.String(),
		MapVersion:  ver,
		OwnedShards: owned,
	})
}
