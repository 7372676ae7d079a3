package live

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/optimistic"
	"repro/internal/runtime"
	"repro/internal/trace"
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

// OptNodeConfig configures one live optimistic replica process. Self,
// Addrs, Seed, DataDir and Fsync mean what they mean in NodeConfig.
type OptNodeConfig struct {
	Self    runtime.NodeID
	Addrs   map[runtime.NodeID]string
	Seed    int64
	DataDir string
	Fsync   string
	// GossipInterval overrides the reconciliation launch period (zero
	// keeps the protocol default).
	GossipInterval time.Duration
	// Shards is the keyspace shard count (zero means 1).
	Shards int
}

// Node is one running replica process: an actor-loop engine, a TCP fabric,
// and the same core.Cluster the simulator drives.
type Node struct {
	Eng     *Engine
	Fab     *Fabric
	Cluster *core.Cluster
}

// OptNode is one running optimistic replica process: the same engine and
// fabric as Node under an optimistic.Cluster.
type OptNode struct {
	Eng     *Engine
	Fab     *Fabric
	Cluster *optimistic.Cluster
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
		backend, policy, err := fsDurability(cfg.DataDir, cfg.Fsync)
		if err != nil {
			return nil, err
		}
		cfg.Cluster.Durability = &core.DurabilityConfig{
			Backend:          backend,
			Policy:           policy,
			GroupCommitDelay: cfg.CommitDelay,
		}
	}
	n := &Node{}
	var err error
	n.Eng, n.Fab, err = start(cfg.Seed, cfg.Self, cfg.Addrs, cfg.Cluster.Trace, func(eng *Engine, fab *Fabric) (err error) {
		n.Cluster, err = core.NewCluster(eng, fab, cfg.Cluster)
		return err
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}

// StartOptNode is StartNode for the optimistic protocol. There is no
// anti-entropy phase to run at startup: the periodic reconciliation
// schedule IS the anti-entropy path, and the first launch after recovery
// advertises the journal-restored state to the peers.
func StartOptNode(cfg OptNodeConfig) (*OptNode, error) {
	ocfg := optimistic.Config{
		N:              len(cfg.Addrs),
		Local:          []runtime.NodeID{cfg.Self},
		Shards:         cfg.Shards,
		GossipInterval: cfg.GossipInterval,
	}
	if cfg.DataDir != "" {
		backend, policy, err := fsDurability(cfg.DataDir, cfg.Fsync)
		if err != nil {
			return nil, err
		}
		ocfg.Durability = &optimistic.DurabilityConfig{Backend: backend, Policy: policy}
	}
	n := &OptNode{}
	var err error
	n.Eng, n.Fab, err = start(cfg.Seed, cfg.Self, cfg.Addrs, nil, func(eng *Engine, fab *Fabric) (err error) {
		n.Cluster, err = optimistic.NewCluster(eng, fab, ocfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}

// fsDurability opens a durable replica's data directory and parses its
// fsync policy.
func fsDurability(dataDir, fsync string) (func(runtime.NodeID) disk.Backend, wal.Policy, error) {
	policy, err := wal.ParsePolicy(fsync)
	if err != nil {
		return nil, 0, fmt.Errorf("live: %w", err)
	}
	fsb, err := disk.NewFS(dataDir)
	if err != nil {
		return nil, 0, err
	}
	return func(runtime.NodeID) disk.Backend { return fsb }, policy, nil
}

// start brings up the engine and the fabric, then runs build — which
// constructs the protocol cluster over them — on the actor loop. The
// fabric accepts connections as soon as it listens, so peers' agents and
// messages may already be arriving on the loop: building there serializes
// journal replay and the first fabric attach against those deliveries.
func start(seed int64, self runtime.NodeID, addrs map[runtime.NodeID]string, tr *trace.Log, build func(*Engine, *Fabric) error) (*Engine, *Fabric, error) {
	eng := NewEngine(seed)
	fab, err := NewFabric(eng, self, addrs, tr)
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	eng.Do(func() { err = build(eng, fab) })
	if err != nil {
		fab.Close()
		eng.Close()
		return nil, nil, err
	}
	return eng, fab, nil
}

// Close tears the node down: fabric first (stops inbound traffic, so no
// protocol callback can arrive after its journal is gone), then the journal
// (flush and close, so a graceful shutdown leaves nothing to replay), then
// the actor loop. The journal close runs on the actor loop, serialized
// after any callbacks the fabric injected before it closed.
func (n *Node) Close() { stop(n.Eng, n.Fab, n.Cluster.CloseJournals) }

// Close tears the node down in Node.Close's order.
func (n *OptNode) Close() { stop(n.Eng, n.Fab, n.Cluster.Close) }

func stop(eng *Engine, fab *Fabric, closeJournals func() error) {
	fab.Close()
	eng.Do(func() {
		if err := closeJournals(); err != nil {
			fmt.Printf("live: closing journal: %v\n", err)
		}
	})
	eng.Close()
}
