package main

import (
	"fmt"
	"time"

	"repro/internal/clusterspec"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/simnet"
)

// The flags that apply only in one mode or to one protocol, in the order
// checkFlags names them. -fsync and -commit-delay also need a data
// directory, which resolveLive checks once the spec is read.
var (
	simOnly  = []string{"servers", "latency", "speed", "batch"}
	liveOnly = []string{"node", "peers", "spec", "data-dir", "fsync", "commit-delay", "ack-delay"}
	marpOnly = []string{"batch", "geometry", "commit-delay", "ack-delay"}
)

// checkFlags refuses an unknown -mode or -protocol, and any flag set on
// the command line (set) that the chosen mode and protocol would ignore.
// Every error is an operator mistake: main exits 2 on it.
func checkFlags(mode, protocol string, set map[string]bool) error {
	unused := liveOnly
	switch mode {
	case "sim":
	case "live":
		unused = simOnly
	default:
		return fmt.Errorf("unknown mode %q (sim or live)", mode)
	}
	switch protocol {
	case "marp":
	case "optimistic":
		unused = append(unused[:len(unused):len(unused)], marpOnly...)
	default:
		return fmt.Errorf("unknown protocol %q (marp or optimistic)", protocol)
	}
	for _, name := range unused {
		if set[name] {
			return fmt.Errorf("-%s does not apply to -mode %s -protocol %s", name, mode, protocol)
		}
	}
	if set["peers"] && set["spec"] {
		return fmt.Errorf("-peers does not apply with -spec (the spec lists every node)")
	}
	return nil
}

// resolveSim validates the sim-mode latency preset and quorum geometry,
// returning the latency model. Its errors are operator mistakes.
func resolveSim(latency, geometry string) (simnet.LatencyModel, error) {
	model, err := simnet.Preset(latency)
	if err != nil {
		return nil, err
	}
	if _, err := quorum.ParseGeometry(geometry); err != nil {
		return nil, err
	}
	return model, nil
}

// liveFlags carries the operator's live-mode input, either raw flags or a
// -spec file reference, before validation.
type liveFlags struct {
	Protocol    string          // -protocol: spec keys only MARP uses are refused under optimistic
	Set         map[string]bool // flags set on the command line
	Spec        string          // -spec: path to a cluster spec file; overrides cluster-level flags
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
// config plus the client and ops listen addresses. A spec key the protocol
// does not use, and -fsync or -commit-delay without a data directory, are
// refused rather than ignored. Every error it returns is an operator
// mistake — main exits 2 on them, before anything listens.
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
		if f.Protocol == "optimistic" {
			for _, k := range []struct {
				key string
				set bool
			}{{"geometry", spec.Geometry != ""}, {"commit_delay", spec.CommitDelay != ""}, {"ack_delay", spec.AckDelay != ""}} {
				if k.set {
					return cfg, "", "", fmt.Errorf("spec %s: key %s does not apply to -protocol optimistic", f.Spec, k.key)
				}
			}
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
	if dataDir == "" {
		for _, name := range []string{"fsync", "commit-delay"} {
			if f.Set[name] {
				return cfg, "", "", fmt.Errorf("-%s applies only with a data directory (-data-dir)", name)
			}
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
