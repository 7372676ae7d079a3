// Package desengine assembles a simulated deployment: the deterministic
// discrete-event engine (internal/des) plus the simulated network
// (internal/simnet), wired under an engine-neutral core.Cluster (MARP) or
// optimistic.Cluster.
//
// This is the only package that pairs a protocol with the simulation
// engine. Everything the simulation owns — the seed, the topology, the
// latency model, the fault model — is configured here rather than on
// core.Config, so the protocol layers stay ignorant of how they are being
// executed. Tests, examples and the benchmark harness build clusters
// through this package; the live deployment builds the same clusters
// through internal/runtime/live instead.
package desengine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/optimistic"
	"repro/internal/simnet"
)

// Config assembles a simulated deployment.
type Config struct {
	// Seed drives every random choice in the simulation.
	Seed int64
	// Topology supplies inter-server travel costs; defaults to a full
	// mesh with uniform costs (the paper's LAN prototype).
	Topology *simnet.Topology
	// Latency is the network delay model; defaults to simnet.LAN().
	Latency simnet.LatencyModel
	// Faults, if non-nil, attaches a message fault model to the network:
	// messages between live, connected nodes may then be lost or
	// duplicated (chaos experiment A6). Nil keeps the paper's §2 reliable
	// channels — and keeps executions byte-identical to the baseline,
	// because the fault model owns its random source.
	Faults *simnet.FaultModel
	// Cluster carries the engine-neutral protocol configuration.
	Cluster core.Config
}

// Cluster is a core.Cluster plus access to the concrete simulation
// machinery underneath it. Harness and test code uses Sim()/Network() to
// step virtual time and inject faults; protocol code never sees either.
type Cluster struct {
	*core.Cluster
	simulation
}

// New builds and wires a simulated cluster per cfg.
func New(cfg Config) (*Cluster, error) {
	s, err := simulate(cfg.Cluster.N, cfg.Seed, cfg.Topology, cfg.Latency, cfg.Faults)
	if err != nil {
		return nil, err
	}
	cl, err := core.NewCluster(s.sim, s.net, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	return &Cluster{cl, s}, nil
}

// OptConfig assembles a simulated deployment of the optimistic protocol,
// with the same simulation settings as Config.
type OptConfig struct {
	Seed     int64
	Topology *simnet.Topology
	Latency  simnet.LatencyModel
	Faults   *simnet.FaultModel
	// Cluster carries the engine-neutral optimistic configuration.
	Cluster optimistic.Config
}

// OptCluster is an optimistic.Cluster plus the simulation machinery
// underneath it, for harness and test drivers.
type OptCluster struct {
	*optimistic.Cluster
	simulation
}

// NewOptimistic builds and wires a simulated optimistic cluster per cfg.
func NewOptimistic(cfg OptConfig) (*OptCluster, error) {
	s, err := simulate(cfg.Cluster.N, cfg.Seed, cfg.Topology, cfg.Latency, cfg.Faults)
	if err != nil {
		return nil, err
	}
	cl, err := optimistic.NewCluster(s.sim, s.net, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	return &OptCluster{cl, s}, nil
}

// simulation is the machinery under a simulated cluster of either
// protocol.
type simulation struct {
	sim *des.Simulator
	net *simnet.Network
}

// simulate builds the simulator and the simulated network for n nodes,
// filling the topology (full mesh) and latency (LAN) defaults. Both
// protocols' assemblies go through here, so the construction order — and
// with it every random draw of a seeded run — is the same for both.
func simulate(n int, seed int64, topo *simnet.Topology, lat simnet.LatencyModel, faults *simnet.FaultModel) (simulation, error) {
	if n < 1 {
		return simulation{}, fmt.Errorf("desengine: config needs N >= 1, got %d", n)
	}
	if topo == nil {
		topo = simnet.FullMesh(n)
	}
	if topo.Len() < n {
		return simulation{}, fmt.Errorf("desengine: topology has %d nodes, need %d", topo.Len(), n)
	}
	if lat == nil {
		lat = simnet.LAN()
	}
	sim := des.New(seed)
	net := simnet.New(sim, topo, lat)
	if faults != nil {
		net.SetFaults(faults)
	}
	return simulation{sim, net}, nil
}

// Sim returns the underlying simulator. Simulation-side drivers only:
// protocol code must reach time through the runtime seam.
func (s simulation) Sim() *des.Simulator { return s.sim }

// Network returns the simulated network. Simulation-side drivers only.
func (s simulation) Network() *simnet.Network { return s.net }
