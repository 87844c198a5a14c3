package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
)

// ShardSpec identifies one shard: a contiguous restart window of one job's
// block exploration. The worker derives the shard's exploration parameters
// from it (shardParams), which makes restart FirstRestart+j of the shard run
// with the global job seed of restart FirstRestart+j — the identity that
// keeps sharding outside the determinism contract.
type ShardSpec struct {
	Job    string `json:"job"`
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	// Block indexes the workload's hot-block list.
	Block int `json:"block"`
	// FirstRestart and Restarts delimit the contiguous restart window
	// [FirstRestart, FirstRestart+Restarts).
	FirstRestart int `json:"first_restart"`
	Restarts     int `json:"restarts"`
	// Workload rebuilds the job's DFGs on the worker; its Params are the
	// whole job's parameters.
	Workload Workload `json:"workload"`
}

// shardParams returns the core parameters the shard's exploration runs
// with: the job's parameters with the restart window rebased, so shard-local
// restart j draws from the seed of global restart FirstRestart+j.
func (s ShardSpec) shardParams() core.Params {
	p := s.Workload.Params
	p.Restarts = s.Restarts
	p.Seed = p.Seed + int64(s.FirstRestart)*7919
	return p
}

// ShardEnvelope is the claim response: the shard plus, on a re-dispatch, the
// last snapshot the lost worker uploaded — the new worker resumes from it
// via core.ResumeOptions.From instead of starting over.
type ShardEnvelope struct {
	Spec     ShardSpec      `json:"spec"`
	Snapshot *core.Snapshot `json:"snapshot,omitempty"`
}

// claimRequest asks for the next pending shard. MetricsURL, when set,
// advertises where the worker's Prometheus /metrics endpoint lives; the
// coordinator's fleet registry serves it to the /v1/fleet/metrics
// aggregator.
type claimRequest struct {
	Worker     string `json:"worker"`
	MetricsURL string `json:"metrics_url,omitempty"`
}

// heartbeatRequest renews a shard's lease. Snapshot, when present, replaces
// the shard's re-dispatch checkpoint. CacheHits/CacheMisses are the worker's
// cumulative local (L1) eval-cache counters for the shard, exposed per shard
// index on the coordinator's /metrics.
type heartbeatRequest struct {
	Worker      string         `json:"worker"`
	Snapshot    *core.Snapshot `json:"snapshot,omitempty"`
	CacheHits   uint64         `json:"cache_hits"`
	CacheMisses uint64         `json:"cache_misses"`
}

// resultRequest delivers a shard's outcome: the serialized best result of
// its restart window, or a terminal error message. Cache counters as in
// heartbeatRequest.
//
// The trailing fields are the shard's observability sidecar (DESIGN.md
// §16), all outside the determinism contract: Trace is the worker's
// buffered shard spans with its local trace epoch, Clock the worker's
// clock-offset estimate against this coordinator (the coordinator rebases
// Trace onto its own timeline with it), and Flight the shard's convergence
// journal in shard-local restart coordinates.
type resultRequest struct {
	Worker      string             `json:"worker"`
	Error       string             `json:"error,omitempty"`
	Result      *core.ResultState  `json:"result,omitempty"`
	CacheHits   uint64             `json:"cache_hits"`
	CacheMisses uint64             `json:"cache_misses"`
	Trace       obs.TraceExport    `json:"trace,omitempty"`
	Clock       obs.ClockState     `json:"clock,omitempty"`
	Flight      []obs.FlightSample `json:"flight,omitempty"`
}

// cacheValue is the wire form of one shared eval-cache entry.
type cacheValue struct {
	N int `json:"n"`
}

// configHash folds a machine configuration into 64 bits for the shared
// cache's wire key, covering every Config field (two multiply–mix passes
// per word, the same construction as sched.KeyHash's chains). Distinct
// configurations collide with probability ~2^-64 — far below the ~2^-128
// assignment-hash collision bound the eval cache already accepts (DESIGN.md
// §10), and the config space actually explored is tiny.
func configHash(cfg machine.Config) uint64 {
	const m1, m2 = 0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f
	h := uint64(0x8b7a1d5c3f2e9b41)
	mix := func(v uint64) {
		h ^= v
		h *= m1
		h ^= h >> 29
		h *= m2
		h ^= h >> 32
	}
	mix(uint64(cfg.IssueWidth))
	mix(uint64(cfg.ReadPorts))
	mix(uint64(cfg.WritePorts))
	mix(uint64(cfg.ASFUs))
	for _, n := range cfg.FUs {
		mix(uint64(n))
	}
	for i := 0; i < len(cfg.Name); i++ {
		mix(uint64(cfg.Name[i]))
	}
	mix(uint64(len(cfg.Name)))
	return h
}

// cacheKeyString renders the shared-cache wire key: 80 fixed hex digits —
// DFG fingerprint (128 bits), machine config hash (64), assignment key hash
// (128). The coordinator's cache never parses it; string equality is key
// equality.
func cacheKeyString(dfp [2]uint64, cfg machine.Config, h sched.KeyHash) string {
	return fmt.Sprintf("%016x%016x%016x%016x%016x", dfp[0], dfp[1], configHash(cfg), h[0], h[1])
}
