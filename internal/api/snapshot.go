package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"holmes/internal/config"
	"holmes/internal/core"
	"holmes/internal/durable"
	"holmes/internal/engine"
)

// Cache snapshot/warm-start: everything in the response cache and the
// search-winner memo is a deterministic function of its key, so a fresh
// process that loads a snapshot answers the same corpus hot from boot —
// ROADMAP item 3's warm-start file. The snapshot is versioned JSON with
// a checksum over the payload; corrupt, truncated, or version-skewed
// files are rejected as a whole before anything touches a cache, and
// accepted entries are re-keyed through the normal LRU paths so the
// cache bounds still hold (DESIGN.md decision 11).

// SnapshotFormat and SnapshotVersion identify the file format. The
// envelope also pins the API version: response structs are not
// cross-version stable, and a stale warm-start is worthless rather than
// dangerous — rejecting is always safe.
const (
	SnapshotFormat  = "holmes-cache-snapshot"
	SnapshotVersion = 1
)

// snapshotFormat seals and opens the cache snapshot envelope.
var snapshotFormat = durable.Format{Name: SnapshotFormat, Version: SnapshotVersion, APIVersion: Version}

// snapshotPayload is the checksummed content.
type snapshotPayload struct {
	// Responses are completed-answer cache entries, least-recently-used
	// first (so replaying in order restores the recency order).
	Responses []responseSnapshot `json:"responses"`
	// Plans are the serializable plan-cache entries (search-winner memo).
	Plans []engine.PlanSnapshotEntry `json:"plans"`
}

// responseSnapshot is one response-cache entry: the operation, the
// canonical config the key was derived from, and the typed response.
type responseSnapshot struct {
	Op       string          `json:"op"`
	Config   json.RawMessage `json:"config"`
	Response json.RawMessage `json:"response"`
}

// SnapshotCounts reports what a load landed.
type SnapshotCounts struct {
	Responses int `json:"responses"`
	Plans     int `json:"plans"`
}

// SaveSnapshot serializes the pool's response cache and search-winner
// memo into one snapshot document.
func (s *Server) SaveSnapshot() ([]byte, error) {
	var payload snapshotPayload
	for _, e := range s.pool.ResponseEntries() {
		op, cfg, ok := strings.Cut(e.Key, "\x00")
		if !ok {
			continue // not a coalesceKey-shaped entry; nothing else mints keys
		}
		resp, err := json.Marshal(e.Val)
		if err != nil {
			return nil, fmt.Errorf("api: snapshot response %q: %w", op, err)
		}
		payload.Responses = append(payload.Responses, responseSnapshot{
			Op: op, Config: json.RawMessage(cfg), Response: resp,
		})
	}
	payload.Plans = s.pool.SnapshotPlans(core.SearchMemoCodec())
	doc, err := snapshotFormat.Seal(payload)
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	return doc, nil
}

// LoadSnapshot validates and loads a snapshot document into the pool's
// caches. The whole file is decoded and re-keyed before anything is
// stored: a snapshot that fails any check — format, version, checksum,
// or any single entry — loads nothing.
func (s *Server) LoadSnapshot(data []byte) (SnapshotCounts, error) {
	raw, err := snapshotFormat.Open(data)
	if err != nil {
		return SnapshotCounts{}, fmt.Errorf("api: %w", err)
	}
	var payload snapshotPayload
	if err := json.Unmarshal(raw, &payload); err != nil {
		return SnapshotCounts{}, fmt.Errorf("api: snapshot payload: %w", err)
	}

	// Stage every response: re-derive the canonical key by running the
	// config back through the normal strict loader (a snapshot never gets
	// to mint keys the request path would not), and re-type the response
	// by operation.
	type staged struct {
		key string
		val any
	}
	responses := make([]staged, 0, len(payload.Responses))
	for i, re := range payload.Responses {
		c, err := config.Load(bytes.NewReader(re.Config))
		if err != nil {
			return SnapshotCounts{}, fmt.Errorf("api: snapshot response %d: config: %w", i, err)
		}
		if err := checkBounds(c); err != nil {
			return SnapshotCounts{}, fmt.Errorf("api: snapshot response %d: %w", i, err)
		}
		if _, err := c.Topology(); err != nil {
			// The request path would never have cached this config (it
			// fails before planning), so a snapshot must not key it either.
			return SnapshotCounts{}, fmt.Errorf("api: snapshot response %d: config: %w", i, err)
		}
		val, err := decodeSnapshotResponse(re.Op, re.Response)
		if err != nil {
			return SnapshotCounts{}, fmt.Errorf("api: snapshot response %d: %w", i, err)
		}
		key := coalesceKey(re.Op, c)
		if key == "" {
			return SnapshotCounts{}, fmt.Errorf("api: snapshot response %d: unkeyable config", i)
		}
		responses = append(responses, staged{key: key, val: val})
	}
	plans, err := engine.DecodePlans(payload.Plans, core.SearchMemoCodec())
	if err != nil {
		return SnapshotCounts{}, err
	}

	for _, r := range responses {
		s.pool.StoreResponse(r.key, r.val)
	}
	for _, d := range plans {
		s.pool.ShardFor(d.Route).StorePlan(d.Key, d.Val)
	}
	return SnapshotCounts{Responses: len(responses), Plans: len(plans)}, nil
}

// decodeSnapshotResponse re-types one cached response by operation. A
// strict decode: an entry that does not round-trip exactly is corrupt.
func decodeSnapshotResponse(op string, raw json.RawMessage) (any, error) {
	strict := func(v any) error {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	switch op {
	case "plan":
		v := new(PlanResponse)
		if err := strict(v); err != nil {
			return nil, err
		}
		return v, nil
	case "search":
		v := new(SearchResponse)
		if err := strict(v); err != nil {
			return nil, err
		}
		return v, nil
	case "simulate":
		v := new(SimulateResponse)
		if err := strict(v); err != nil {
			return nil, err
		}
		return v, nil
	default:
		return nil, fmt.Errorf("unknown op %q", op)
	}
}
