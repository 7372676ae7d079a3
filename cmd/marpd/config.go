package main

import (
	"fmt"
	"time"

	"repro/internal/clusterspec"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
)

// liveFlags carries the operator's live-mode input, either raw flags or a
// -spec file reference, before validation.
type liveFlags struct {
	Spec        string // -spec: path to a cluster spec file; overrides cluster-level flags
	Node        int
	Peers       string
	Addr        string // client listen address (-addr)
	Ops         string // ops listen address (-ops)
	Seed        int64
	DataDir     string
	Fsync       string
	Shards      int
	Geometry    string
	CommitDelay time.Duration
	AckDelay    time.Duration
}

// resolveLive validates the operator's input and produces the live node
// config plus the client and ops listen addresses. Every error it returns
// is an operator mistake — main exits 2 on them, before anything listens.
func resolveLive(f liveFlags) (cfg live.NodeConfig, clientAddr, opsAddr string, err error) {
	self := runtime.NodeID(f.Node)
	clientAddr, opsAddr = f.Addr, f.Ops

	var addrs map[runtime.NodeID]string
	geometry, fsync := f.Geometry, f.Fsync
	seed, dataDir := f.Seed, f.DataDir
	commitDelay, ackDelay := f.CommitDelay, f.AckDelay
	shards := f.Shards

	if f.Spec != "" {
		spec, lerr := clusterspec.Load(f.Spec)
		if lerr != nil {
			return cfg, "", "", lerr
		}
		node := spec.Find(f.Node)
		if node == nil {
			return cfg, "", "", fmt.Errorf("spec %s has no node %d (nodes: %v)", f.Spec, f.Node, spec.IDs())
		}
		addrs = spec.FabricAddrs()
		if node.Client != "" {
			clientAddr = node.Client
		}
		if node.Ops != "" {
			opsAddr = node.Ops
		}
		if spec.Geometry != "" {
			geometry = spec.Geometry
		}
		if spec.Fsync != "" {
			fsync = spec.Fsync
		}
		if spec.Seed != 0 {
			seed = spec.Seed
		}
		if spec.Shards != 0 {
			shards = spec.Shards
		}
		if dir := spec.DataDirOf(f.Node); dir != "" {
			dataDir = dir
		}
		// Spec delay strings were validated by Load.
		if spec.CommitDelay != "" {
			commitDelay, _ = time.ParseDuration(spec.CommitDelay)
		}
		if spec.AckDelay != "" {
			ackDelay, _ = time.ParseDuration(spec.AckDelay)
		}
	} else {
		if addrs, err = clusterspec.ParsePeers(f.Peers); err != nil {
			return cfg, "", "", err
		}
	}
	if err = clusterspec.ValidatePeers(self, addrs); err != nil {
		return cfg, "", "", err
	}
	geom, err := quorum.ParseGeometry(geometry)
	if err != nil {
		return cfg, "", "", err
	}
	cfg = live.NodeConfig{
		Self:        self,
		Addrs:       addrs,
		Seed:        seed,
		DataDir:     dataDir,
		Fsync:       fsync,
		CommitDelay: commitDelay,
		Cluster: core.Config{
			Shards:          shards,
			Geometry:        geom,
			MigrateAckDelay: ackDelay,
		},
	}
	return cfg, clientAddr, opsAddr, nil
}
