package wire

import (
	"encoding/json"
	"fmt"

	"prairie/internal/core"
	"prairie/internal/volcano"
)

// CacheEntry is one plan-cache entry in serialized form — the winner
// plan plus the cold-run shape statistics a hit reports — decodable
// against any copy of the world's algebra. The service never sends one;
// the benchmark times the round trip (wire.entry_roundtrip_us).
type CacheEntry struct {
	Plan      *PlanNode `json:"plan"`
	Cost      float64   `json:"cost"`
	Groups    int       `json:"groups,omitempty"`
	Exprs     int       `json:"exprs,omitempty"`
	Merges    int       `json:"merges,omitempty"`
	MemoBytes int64     `json:"memo_bytes,omitempty"`
}

// EncodeEntry serializes a cache entry.
func EncodeEntry(e volcano.RemoteEntry) ([]byte, error) {
	pn, err := EncodePlan(e.Plan)
	if err != nil {
		return nil, err
	}
	if pn == nil {
		return nil, fmt.Errorf("wire: cache entry without a plan")
	}
	return json.Marshal(CacheEntry{
		Plan:      pn,
		Cost:      e.Cost,
		Groups:    e.Groups,
		Exprs:     e.Exprs,
		Merges:    e.Merges,
		MemoBytes: e.MemoBytes,
	})
}

// DecodeEntry rebuilds a cache entry from its encoding against alg. The
// decoded plan is a fresh tree with its
// own descriptors — safe to cache and clone like a locally-built one.
func DecodeEntry(alg *core.Algebra, b []byte) (volcano.RemoteEntry, error) {
	var ce CacheEntry
	if err := json.Unmarshal(b, &ce); err != nil {
		return volcano.RemoteEntry{}, fmt.Errorf("wire: cache entry: %w", err)
	}
	if ce.Plan == nil {
		return volcano.RemoteEntry{}, fmt.Errorf("wire: cache entry without a plan")
	}
	tree, err := DecodePlan(alg, ce.Plan)
	if err != nil {
		return volcano.RemoteEntry{}, err
	}
	return volcano.RemoteEntry{
		Plan:      tree,
		Cost:      ce.Cost,
		Groups:    ce.Groups,
		Exprs:     ce.Exprs,
		Merges:    ce.Merges,
		MemoBytes: ce.MemoBytes,
	}, nil
}
