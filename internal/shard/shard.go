package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Strategy names accepted by Partition and carried in the map. A
// rebalanced map keeps the strategy it was born with: the strategy records
// how the initial split was computed, not an invariant the current
// assignment still satisfies.
const (
	// StrategyHash assigns each model to FNV-1a(name) mod #shards: stable
	// under reordering and growth of the model list.
	StrategyHash = "hash"
	// StrategyRange slices the model list into contiguous, evenly sized
	// key ranges in the given order.
	StrategyRange = "range"
	// StrategyExplicit prefixes an operator-chosen assignment:
	// "explicit:A,B/C" puts models A and B on shard 0 and C on shard 1.
	// Model costs are wildly uneven (one model can be a third of the
	// total work), so a load-aware split needs the operator's numbers —
	// neither hash nor range can know them.
	StrategyExplicit = "explicit:"
)

// ErrFormat reports a structurally invalid shard map.
var ErrFormat = errors.New("shard: invalid shard map")

// Shard is one partition of the model address table: the models it owns,
// the backend URL serving it (empty until a deployment binds one) and the
// .codb segment file holding exactly its models (empty when the shard
// serves from an unsplit full snapshot).
type Shard struct {
	ID      int      `json:"id"`
	Models  []string `json:"models"`
	Backend string   `json:"backend,omitempty"`
	Segment string   `json:"segment,omitempty"`
}

// Owns reports whether the shard owns the named model.
func (s *Shard) Owns(model string) bool {
	for _, m := range s.Models {
		if m == model {
			return true
		}
	}
	return false
}

// Map is the versioned partition of the model address table. Whoever
// edits the assignment bumps the version, so routers and backends can order two
// maps of the same deployment; it never goes backwards.
type Map struct {
	Version  uint64  `json:"version"`
	Strategy string  `json:"strategy"`
	Shards   []Shard `json:"shards"`
}

// Partition splits the models across n shards with the given strategy
// (StrategyHash or StrategyRange). The result has version 1 and no
// backend/segment bindings. Empty shards are legal under StrategyHash
// (two models can collide); every model lands in exactly one shard.
func Partition(models []string, n int, strategy string) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: %d shards", n)
	}
	if len(models) == 0 {
		return nil, errors.New("shard: no models to partition")
	}
	m := &Map{Version: 1, Strategy: strategy, Shards: make([]Shard, n)}
	for i := range m.Shards {
		m.Shards[i].ID = i
	}
	switch strategy {
	case StrategyHash:
		for _, name := range models {
			h := fnv.New32a()
			h.Write([]byte(name))
			id := int(h.Sum32() % uint32(n))
			m.Shards[id].Models = append(m.Shards[id].Models, name)
		}
	case StrategyRange:
		// Contiguous slices, remainder spread over the leading shards so
		// sizes differ by at most one.
		per, rem := len(models)/n, len(models)%n
		next := 0
		for i := range m.Shards {
			take := per
			if i < rem {
				take++
			}
			m.Shards[i].Models = append([]string(nil), models[next:next+take]...)
			next += take
		}
	default:
		if !strings.HasPrefix(strategy, StrategyExplicit) {
			return nil, fmt.Errorf("shard: unknown strategy %q (want %s, %s or %sA,B/C)",
				strategy, StrategyHash, StrategyRange, StrategyExplicit)
		}
		have := make(map[string]bool, len(models))
		for _, name := range models {
			have[name] = true
		}
		groups := strings.Split(strings.TrimPrefix(strategy, StrategyExplicit), "/")
		if len(groups) != n {
			return nil, fmt.Errorf("shard: explicit spec names %d shards, -split asked for %d", len(groups), n)
		}
		for i, group := range groups {
			for _, name := range strings.Split(group, ",") {
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				if !have[name] {
					return nil, fmt.Errorf("shard: explicit spec names unknown model %q", name)
				}
				m.Shards[i].Models = append(m.Shards[i].Models, name)
			}
		}
		assigned := 0
		for i := range m.Shards {
			assigned += len(m.Shards[i].Models)
		}
		if assigned != len(models) {
			return nil, fmt.Errorf("shard: explicit spec assigns %d of %d models", assigned, len(models))
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks the structural invariants every consumer relies on:
// a positive version, a known strategy, unique non-negative shard IDs,
// and every model owned by exactly one shard.
func (m *Map) Validate() error {
	if m.Version == 0 {
		return fmt.Errorf("%w: version 0", ErrFormat)
	}
	if m.Strategy != StrategyHash && m.Strategy != StrategyRange &&
		!strings.HasPrefix(m.Strategy, StrategyExplicit) {
		return fmt.Errorf("%w: strategy %q", ErrFormat, m.Strategy)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("%w: no shards", ErrFormat)
	}
	ids := make(map[int]bool, len(m.Shards))
	owners := make(map[string]int)
	total := 0
	for i := range m.Shards {
		s := &m.Shards[i]
		if s.ID < 0 {
			return fmt.Errorf("%w: shard id %d", ErrFormat, s.ID)
		}
		if ids[s.ID] {
			return fmt.Errorf("%w: duplicate shard id %d", ErrFormat, s.ID)
		}
		ids[s.ID] = true
		for _, name := range s.Models {
			if name == "" {
				return fmt.Errorf("%w: shard %d owns an unnamed model", ErrFormat, s.ID)
			}
			if prev, dup := owners[name]; dup {
				return fmt.Errorf("%w: model %q owned by shards %d and %d", ErrFormat, name, prev, s.ID)
			}
			owners[name] = s.ID
			total++
		}
	}
	if total == 0 {
		return fmt.Errorf("%w: no models owned by any shard", ErrFormat)
	}
	return nil
}

// Owner returns the ID of the shard owning the model.
func (m *Map) Owner(model string) (int, bool) {
	for i := range m.Shards {
		if m.Shards[i].Owns(model) {
			return m.Shards[i].ID, true
		}
	}
	return 0, false
}

// Shard returns the shard with the given ID.
func (m *Map) Shard(id int) (*Shard, bool) {
	for i := range m.Shards {
		if m.Shards[i].ID == id {
			return &m.Shards[i], true
		}
	}
	return nil, false
}

// Models returns every owned model, sorted — the full address table the
// map partitions.
func (m *Map) Models() []string {
	var out []string
	for i := range m.Shards {
		out = append(out, m.Shards[i].Models...)
	}
	sort.Strings(out)
	return out
}

// Encode serializes the map as indented JSON (the on-disk and on-wire
// form; human-editable by design).
func (m *Map) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Decode parses and validates a serialized map. Unknown fields are
// rejected: a map is deployment configuration, where a typo silently
// ignored becomes a shard served by nobody.
func Decode(data []byte) (*Map, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var m Map
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	// Trailing garbage after the document is a truncated or concatenated
	// file, not a map.
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data", ErrFormat)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Load reads and validates a map file.
func Load(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Write serializes the map to path atomically (temp file + rename in the
// same directory), so a concurrent Load never observes a half-written
// map.
func (m *Map) Write(path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".shards-*")
	if err != nil {
		return err
	}
	defer func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}()
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// SegmentName derives the per-shard segment path from a snapshot path:
// bench.codb → bench.s0.codb. Segments sit next to the snapshot they were
// split from.
func SegmentName(dbPath string, id int) string {
	ext := filepath.Ext(dbPath)
	return fmt.Sprintf("%s.s%d%s", strings.TrimSuffix(dbPath, ext), id, ext)
}

// MapName derives the shard-map path from a snapshot path:
// bench.codb → bench.shards.json.
func MapName(dbPath string) string {
	ext := filepath.Ext(dbPath)
	return strings.TrimSuffix(dbPath, ext) + ".shards.json"
}
