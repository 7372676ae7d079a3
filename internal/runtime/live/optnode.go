package live

// The optimistic protocol's live assembly, mirroring StartNode: same
// actor-loop engine, same TCP fabric, a different protocol cluster on top.
// One process hosts one optimistic replica; reconciliation agents migrate
// to the peers over real sockets as wire-encoded state.

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/optimistic"
	"repro/internal/runtime"
	"repro/internal/wal"
)

// OptNodeConfig configures one live optimistic replica process.
type OptNodeConfig struct {
	// Self is this process's replica ID (1..N).
	Self runtime.NodeID
	// Addrs maps every replica ID — including Self — to its TCP address.
	Addrs map[runtime.NodeID]string
	// Seed feeds the protocol's random source.
	Seed int64
	// DataDir, if non-empty, makes the replica durable (FS-backed journal;
	// a restart with the same DataDir replays it before rejoining).
	DataDir string
	// Fsync selects the WAL fsync policy (see wal.ParsePolicy). Only
	// meaningful with DataDir.
	Fsync string
	// GossipInterval overrides the reconciliation launch period (zero
	// keeps the protocol default).
	GossipInterval time.Duration
	// Shards is the keyspace shard count (zero means 1).
	Shards int
}

// OptNode is one running optimistic replica process.
type OptNode struct {
	Eng     *Engine
	Fab     *Fabric
	Cluster *optimistic.Cluster
}

// StartOptNode brings up the engine, the fabric, and the local optimistic
// replica. Unlike the pessimistic StartNode there is no anti-entropy phase
// to run at startup: the periodic reconciliation schedule IS the
// anti-entropy path, and the first launch after recovery advertises the
// journal-restored state to the peers.
func StartOptNode(cfg OptNodeConfig) (*OptNode, error) {
	ocfg := optimistic.Config{
		N:              len(cfg.Addrs),
		Local:          []runtime.NodeID{cfg.Self},
		Shards:         cfg.Shards,
		GossipInterval: cfg.GossipInterval,
	}
	if cfg.DataDir != "" {
		policy, err := wal.ParsePolicy(cfg.Fsync)
		if err != nil {
			return nil, fmt.Errorf("live: %w", err)
		}
		fsb, err := disk.NewFS(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		ocfg.Durability = &optimistic.DurabilityConfig{
			Backend: func(runtime.NodeID) disk.Backend { return fsb },
			Policy:  policy,
		}
	}
	eng := NewEngine(cfg.Seed)
	fab, err := NewFabric(eng, cfg.Self, cfg.Addrs)
	if err != nil {
		eng.Close()
		return nil, err
	}
	var cl *optimistic.Cluster
	var clErr error
	// Journal replay and the first fabric attach run on the actor loop,
	// serialized against inbound deliveries, exactly like StartNode's
	// recovery phase.
	eng.Do(func() { cl, clErr = optimistic.NewCluster(eng, fab, ocfg) })
	if clErr != nil {
		fab.Close()
		eng.Close()
		return nil, clErr
	}
	return &OptNode{Eng: eng, Fab: fab, Cluster: cl}, nil
}

// Close tears the node down: fabric first (no protocol callback can arrive
// after its journal is gone), then the journal on the actor loop, then the
// loop itself.
func (n *OptNode) Close() {
	n.Fab.Close()
	n.Eng.Do(func() {
		if err := n.Cluster.Close(); err != nil {
			fmt.Printf("live: closing optimistic journal: %v\n", err)
		}
	})
	n.Eng.Close()
}
