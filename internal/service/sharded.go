package service

import "github.com/muerp/quantumnet/internal/graph"

// This file keeps the names of the removed sharded admission plane that the
// perfbench module still builds against. None of them has behaviour of its
// own: NewSharded is New, and every sharding knob is ignored.

// ShardedConfig is Config plus the sharding knobs, all of them ignored.
//
// Deprecated: kept only because the perfbench module still builds one. Use
// Config.
type ShardedConfig struct {
	Config
	Shards        int
	PartitionSeed int64
	CrossRetries  int
}

// ShardedServer is a Server.
//
// Deprecated: kept only because the perfbench module still builds one. Use
// Server.
type ShardedServer struct{ *Server }

// NewSharded returns New(cfg.Config).
//
// Deprecated: kept only because the perfbench module still calls it. Use New.
func NewSharded(cfg ShardedConfig) (*ShardedServer, error) {
	s, err := New(cfg.Config)
	if err != nil {
		return nil, err
	}
	return &ShardedServer{s}, nil
}

// Partition is the one region every node is in.
//
// Deprecated: kept only because the perfbench module still reads it.
type Partition struct{}

// RegionOf returns 0, the one region.
func (Partition) RegionOf(graph.NodeID) int { return 0 }

// Partition returns the one region.
func (s *ShardedServer) Partition() Partition { return Partition{} }

// ComposedState returns StateDump(), with no torn sessions.
func (s *ShardedServer) ComposedState() (State, []string, error) { return s.StateDump(), nil, nil }

// RouterMetrics counts nothing: there is no router.
//
// Deprecated: kept only because the perfbench module still reads it. Every
// field is always 0.
type RouterMetrics struct {
	CrossRegion     int64
	CrossRegionRate float64
	Conflicts       int64
	GlobalFallbacks int64
}

// ShardedMetrics is Metrics plus the always-zero router counters.
//
// Deprecated: kept only because the perfbench module still reads it.
type ShardedMetrics struct {
	Metrics
	Router RouterMetrics
}

// Metrics returns the Server's Metrics with zero router counters.
func (s *ShardedServer) Metrics() ShardedMetrics {
	return ShardedMetrics{Metrics: s.Server.Metrics()}
}
