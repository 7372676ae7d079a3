package live

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/runtime"
	"repro/internal/wal"
)

// NodeConfig describes one replica process of a live deployment.
type NodeConfig struct {
	// Self is this process's replica ID (1..N).
	Self runtime.NodeID
	// Addrs maps every replica ID — including Self — to its TCP address.
	// All processes must agree on this map.
	Addrs map[runtime.NodeID]string
	// Seed feeds the protocol's random source (retry jitter and the like).
	Seed int64
	// DataDir, if non-empty, makes the replica durable: its write-ahead log
	// and snapshots live in this directory, and a restart with the same
	// DataDir replays them before rejoining. Empty keeps the replica
	// volatile (the seed behaviour).
	DataDir string
	// Fsync selects the WAL fsync policy ("commit", "always", "none"; see
	// wal.ParsePolicy). Only meaningful with DataDir.
	Fsync string
	// CommitDelay enables WAL group commit with the given coalescing
	// window (200µs is a good start; zero keeps one fsync per commit
	// barrier). Only meaningful with DataDir and Fsync=commit.
	CommitDelay time.Duration
	// Codec names the fabric frame encoding. The wire codec is the only
	// one, so StartNode accepts just "" and "wire" and refuses anything
	// else. The field is kept only because the benchmark module
	// (perfbench) sets Codec: "wire" and must keep compiling unchanged.
	Codec string
	// Cluster carries the engine-neutral protocol configuration. N and
	// Local are derived from Addrs/Self and must be left unset. Durability
	// is derived from DataDir/Fsync; alternatively, with DataDir empty, an
	// explicit Cluster.Durability supplies a custom backend (the A9 harness
	// uses this to run live nodes against a modelled-latency Mem disk).
	Cluster core.Config
}

// Node is one running replica process: an actor-loop engine, a TCP fabric,
// and the same core.Cluster the simulator drives.
type Node struct {
	Eng     *Engine
	Fab     *Fabric
	Cluster *core.Cluster
}

// StartNode brings up the engine, the fabric, and the local replica. The
// node is ready to exchange protocol traffic when StartNode returns; peers
// that are not up yet simply cost a few dropped messages, which the
// protocol's timeouts absorb.
//
// With NodeConfig.DataDir set, startup begins with a recovery phase: the
// replica replays its journal (snapshot plus WAL suffix) before it attaches
// to the network, then runs an anti-entropy round against its peers to
// fetch whatever it missed while down. A fresh directory replays nothing
// and the node starts empty, exactly like a volatile one.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Cluster.N != 0 || cfg.Cluster.Local != nil {
		return nil, fmt.Errorf("live: Cluster.N and Cluster.Local are derived from Addrs; leave them unset")
	}
	if cfg.Codec != "" && cfg.Codec != "wire" {
		return nil, fmt.Errorf("live: unknown codec %q (the wire codec is the only one)", cfg.Codec)
	}
	if cfg.Cluster.Durability != nil && cfg.DataDir != "" {
		return nil, fmt.Errorf("live: set either DataDir or an explicit Cluster.Durability, not both")
	}
	cfg.Cluster.N = len(cfg.Addrs)
	cfg.Cluster.Local = []runtime.NodeID{cfg.Self}
	if cfg.DataDir != "" {
		policy, err := wal.ParsePolicy(cfg.Fsync)
		if err != nil {
			return nil, fmt.Errorf("live: %w", err)
		}
		fsb, err := disk.NewFS(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		cfg.Cluster.Durability = &core.DurabilityConfig{
			Backend:          func(runtime.NodeID) disk.Backend { return fsb },
			Policy:           policy,
			GroupCommitDelay: cfg.CommitDelay,
		}
	}
	eng := NewEngine(cfg.Seed)
	fab, err := NewFabricOptions(eng, cfg.Self, cfg.Addrs, FabricOptions{Trace: cfg.Cluster.Trace})
	if err != nil {
		eng.Close()
		return nil, err
	}
	cl, err := core.NewCluster(eng, fab, cfg.Cluster)
	if err != nil {
		fab.Close()
		eng.Close()
		return nil, err
	}
	return &Node{Eng: eng, Fab: fab, Cluster: cl}, nil
}

// Close tears the node down: fabric first (stops inbound traffic, so no
// protocol callback can arrive after its journal is gone), then the journal
// (flush and close, so a graceful shutdown leaves nothing to replay), then
// the actor loop. The journal close runs on the actor loop, serialized
// after any callbacks the fabric injected before it closed.
func (n *Node) Close() {
	n.Fab.Close()
	n.Eng.Do(func() {
		if err := n.Cluster.CloseJournals(); err != nil {
			fmt.Printf("live: closing journal: %v\n", err)
		}
	})
	n.Eng.Close()
}
