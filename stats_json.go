package rme

import "encoding/json"

// JSON shapes for the observability snapshots, so a monitoring pipeline
// (or rmebench's -stats flag) can dump a table's state without writing
// its own adapters. The encodings are explicit rather than the default
// struct reflection: field names are stable snake_case (safe to rename Go
// fields later), backends marshal as their String() names rather than
// bare ints, and the derived wakes-per-op ratio is included so dashboards
// need no client-side arithmetic.

// MarshalJSON encodes the backend as its String() name ("flat", "tree",
// "mcs", "auto").
func (b ShardBackend) MarshalJSON() ([]byte, error) {
	return json.Marshal(b.String())
}

type shardStatsJSON struct {
	Acquires   uint64  `json:"acquires"`
	Publishes  uint64  `json:"publishes"`
	Wakes      uint64  `json:"wakes"`
	Sleeps     uint64  `json:"sleeps"`
	Parks      uint64  `json:"parks"`
	SpinRounds uint64  `json:"spin_rounds"`
	Aborts     uint64  `json:"aborts"`
	Timeouts   uint64  `json:"timeouts"`
	Orphans    int     `json:"orphans"`
	InboxDepth int     `json:"inbox_depth"`
	WakesPerOp float64 `json:"wakes_per_op"`
}

// MarshalJSON encodes the stripe snapshot with stable snake_case keys and
// the derived wakes-per-op ratio inlined.
func (s ShardStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(shardStatsJSON{
		Acquires:   s.Acquires,
		Publishes:  s.Publishes,
		Wakes:      s.Wakes,
		Sleeps:     s.Sleeps,
		Parks:      s.Parks,
		SpinRounds: s.SpinRounds,
		Aborts:     s.Aborts,
		Timeouts:   s.Timeouts,
		Orphans:    s.Orphans,
		InboxDepth: s.InboxDepth,
		WakesPerOp: s.WakesPerOp(),
	})
}

type supervisorStatsJSON struct {
	Sweeps        uint64 `json:"sweeps"`
	StripesHealed uint64 `json:"stripes_healed"`
	PortsHealed   uint64 `json:"ports_healed"`
}

// MarshalJSON encodes the supervisor snapshot with stable snake_case keys.
func (s SupervisorStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(supervisorStatsJSON{
		Sweeps:        s.Sweeps,
		StripesHealed: s.StripesHealed,
		PortsHealed:   s.PortsHealed,
	})
}

type dispatcherStatsJSON struct {
	PoolSize      int    `json:"pool_size"`
	Workers       int    `json:"workers"`
	Engaged       int    `json:"engaged"`
	RunQueueDepth int    `json:"run_queue_depth"`
	Batches       uint64 `json:"batches"`
	Steals        uint64 `json:"steals"`
}

// MarshalJSON encodes the shared dispatcher runtime's pool gauges with
// stable snake_case keys.
func (s DispatcherStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(dispatcherStatsJSON{
		PoolSize:      s.PoolSize,
		Workers:       s.Workers,
		Engaged:       s.Engaged,
		RunQueueDepth: s.RunQueueDepth,
		Batches:       s.Batches,
		Steals:        s.Steals,
	})
}

type tableStatsJSON struct {
	Shards     []ShardStats    `json:"shards"`
	Total      ShardStats      `json:"total"`
	Supervisor SupervisorStats `json:"supervisor"`
	Dispatcher DispatcherStats `json:"dispatcher"`
}

// MarshalJSON encodes the whole table snapshot: the per-stripe array, the
// Total() aggregate, the supervisor's counters, and the dispatcher
// pool's gauges.
func (ts TableStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableStatsJSON{
		Shards:     ts.Shards,
		Total:      ts.Total(),
		Supervisor: ts.Supervisor,
		Dispatcher: ts.Dispatcher,
	})
}
