// Command marpd runs a live MARP replicated data service, reachable over
// TCP with a line-delimited JSON protocol (see internal/transport). It has
// two modes behind the same protocol code:
//
//   - sim (default): one process hosts a whole cluster of mobile-agent-
//     enabled replicated servers on the deterministic simulation engine,
//     paced against the wall clock;
//   - live: each replica is its own OS process on the wall clock, and
//     mobile agents migrate between processes over TCP as serialized state.
//
// Both modes can instead run the optimistic commitment protocol
// (-protocol optimistic): submits commit tentatively at local latency and
// reconciliation agents merge the replicas in the background
// (internal/optimistic). `marpctl digest` then reports the stable and
// tentative tiers separately.
//
// Which flags apply where:
//
//   - everywhere: -mode, -protocol, -addr, -ops, -seed, -shards, -record;
//   - sim mode: -servers, -latency, -speed, and -batch with MARP;
//   - live mode: -node, -peers or -spec, -data-dir, and -fsync with a data
//     directory;
//   - live MARP: -ack-delay, and -commit-delay with a data directory;
//   - MARP in either mode: -geometry.
//
// A flag set on the command line that the chosen mode and protocol would
// ignore (or -peers together with -spec), or a spec key the protocol does
// not use (geometry, commit_delay, ack_delay under optimistic) makes
// marpd exit 2 naming it, like an unknown -mode, -protocol, -latency or
// -geometry.
//
// Usage (sim):
//
//	marpd -addr :7707 -servers 5 -latency lan -speed 1
//
// Usage (live, one line per terminal):
//
//	marpd -mode live -node 1 -peers 1=127.0.0.1:7801,2=127.0.0.1:7802,3=127.0.0.1:7803 -addr :7707
//	marpd -mode live -node 2 -peers 1=127.0.0.1:7801,2=127.0.0.1:7802,3=127.0.0.1:7803 -addr :7708
//	marpd -mode live -node 3 -peers 1=127.0.0.1:7801,2=127.0.0.1:7802,3=127.0.0.1:7803 -addr :7709
//
// Or declaratively, with every address and cluster-level setting in one
// spec file (internal/clusterspec; `marpctl spec expand` shows the
// derived flags):
//
//	marpd -spec cluster.json -mode live -node 1
//	marpd -spec cluster.json -mode live -node 2
//	marpd -spec cluster.json -mode live -node 3
//
// A malformed -peers string or spec (duplicate IDs, missing self entry,
// unparseable address) makes marpd exit 2 before anything listens.
//
// Add -ops host:port (or an `ops` address per node in the spec) to serve
// the ops endpoints: Prometheus-text /metrics and JSON /healthz, the
// latter reporting per-shard write-quorum reachability.
//
// Add -data-dir <dir> (one directory per replica) to make a live replica
// durable: its write-ahead log and snapshots land there, SIGTERM flushes
// and closes the log, and restarting with the same -data-dir replays it
// before rejoining (README.md walks through a kill-and-restart).
//
// Add -record <dir> (one shared directory for the whole cluster) to spool
// every accepted submit as an incident-scenario event. Faults are recorded
// by the injector (`marpctl -record <dir> crash ...` and friends), and
// `marpctl snapshot-scenario` merges the spools into a replayable bundle
// (see internal/scenario and `marpbench -exp replay`).
//
// Then drive it with marpctl:
//
//	marpctl -addr :7707 submit 1 mykey myvalue
//	marpctl -addr :7707 read 3 mykey
//	marpctl -addr :7707 stats
//	marpctl -addr :7707 crash 4
//	marpctl -addr :7707 recover 4
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	marp "repro"
	"repro/internal/desengine"
	"repro/internal/ops"
	"repro/internal/optimistic"
	"repro/internal/runtime/live"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/transport"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7707", "TCP listen address for clients")
		servers  = flag.Int("servers", 5, "number of replicated servers (sim mode)")
		seed     = flag.Int64("seed", 1, "random seed")
		latency  = flag.String("latency", "lan", "replica network latency (sim mode): lan, prototype, wan")
		speed    = flag.Float64("speed", 1, "virtual seconds per wall-clock second (sim mode)")
		batch    = flag.Int("batch", 1, "requests per mobile agent (sim mode, MARP)")
		mode     = flag.String("mode", "sim", "sim (whole cluster, simulated network) or live (one replica per process)")
		node     = flag.Int("node", 0, "this process's replica ID (live mode)")
		peers    = flag.String("peers", "", "replica fabric addresses, id=host:port comma-separated (live mode)")
		spec     = flag.String("spec", "", "cluster spec file (.json); replaces -peers and cluster-level flags (live mode)")
		opsAddr  = flag.String("ops", "", "ops HTTP listen address serving /metrics and /healthz (empty = no ops listener)")
		dataDir  = flag.String("data-dir", "", "durability directory: WAL + snapshots; restart with the same dir to recover (live mode)")
		fsync    = flag.String("fsync", "commit", "WAL fsync policy with -data-dir: commit, always, none")
		shards   = flag.Int("shards", 1, "key-space shards (independent per-key locking domains)")
		geometry = flag.String("geometry", "majority", "quorum geometry (MARP): majority, grid, tree")
		commit   = flag.Duration("commit-delay", 0, "WAL group-commit window with -data-dir, e.g. 200us; 0 = fsync per commit (live mode, MARP)")
		ackDelay = flag.Duration("ack-delay", 0, "migration ack aggregation window, e.g. 500us; 0 = ack immediately (live mode, MARP)")
		record   = flag.String("record", "", "incident-recording spool directory: accepted submits are appended as scenario events (share one dir across the cluster; see marpctl snapshot-scenario)")
		protocol = flag.String("protocol", "marp", "replication protocol: marp (pessimistic locking agents) or optimistic (tentative commits + reconciliation agents)")
	)
	flag.Parse()
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// Operator mistakes exit 2 before anything listens, distinct from the
	// runtime failures below.
	usageErr := func(err error) {
		fmt.Fprintf(os.Stderr, "marpd: %v\n", err)
		os.Exit(2)
	}
	if err := checkFlags(*mode, *protocol, set); err != nil {
		usageErr(err)
	}
	clientAddr, opsListen := *addr, *opsAddr
	var model simnet.LatencyModel
	var cfg live.NodeConfig
	if *mode == "sim" {
		var err error
		if model, err = resolveSim(*latency, *geometry); err != nil {
			usageErr(err)
		}
	} else {
		var err error
		cfg, clientAddr, opsListen, err = resolveLive(liveFlags{
			Protocol: *protocol, Set: set,
			Spec: *spec, Node: *node, Peers: *peers,
			Addr: *addr, Ops: *opsAddr,
			Seed: *seed, DataDir: *dataDir, Fsync: *fsync,
			Shards: *shards, Geometry: *geometry,
			CommitDelay: *commit, AckDelay: *ackDelay,
		})
		if err != nil {
			usageErr(err)
		}
	}

	var srv *transport.Server
	var err error
	sim := *mode == "sim"
	switch {
	case *protocol == "marp" && sim:
		srv, err = transport.Serve(clientAddr, marp.Options{
			Servers:   *servers,
			Seed:      *seed,
			Latency:   marp.Latency(*latency),
			BatchSize: *batch,
			Shards:    *shards,
			Geometry:  *geometry,
		}, *speed)
	case *protocol == "marp":
		srv, err = transport.ServeLive(clientAddr, cfg)
	case sim:
		srv, err = transport.ServeOptimistic(clientAddr, desengine.OptConfig{
			Seed:    *seed,
			Latency: model,
			Cluster: optimistic.Config{N: *servers, Shards: *shards},
		}, *speed)
	default:
		srv, err = transport.ServeLiveOptimistic(clientAddr, live.OptNodeConfig{
			Self: cfg.Self, Addrs: cfg.Addrs, Seed: cfg.Seed,
			DataDir: cfg.DataDir, Fsync: cfg.Fsync,
			Shards: cfg.Cluster.Shards,
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "marpd: %v\n", err)
		os.Exit(1)
	}
	var opsSrv *ops.Server
	if opsListen != "" {
		opsSrv, err = ops.Serve(opsListen, ops.Config{
			Gather: srv.GatherMetrics,
			Health: srv.Health,
		})
		if err != nil {
			srv.Close()
			fmt.Fprintf(os.Stderr, "marpd: ops listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("marpd: ops listener on http://%s (/metrics, /healthz)\n", opsSrv.Addr())
	}
	var rec *scenario.Recorder
	if *record != "" {
		name := "sim"
		if *mode == "live" {
			name = fmt.Sprintf("node-%d", *node)
		}
		rec, err = scenario.OpenRecorder(*record, name)
		if err != nil {
			srv.Close()
			fmt.Fprintf(os.Stderr, "marpd: %v\n", err)
			os.Exit(1)
		}
		srv.SetRecorder(rec)
	}
	if *mode == "live" {
		fmt.Printf("marpd: live replica %d of %d, listening on %s\n",
			*node, len(cfg.Addrs), srv.Addr())
	} else {
		fmt.Printf("marpd: %d replicated servers, %s latency, %gx time, listening on %s\n",
			*servers, *latency, *speed, srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nmarpd: shutting down")
	if opsSrv != nil {
		opsSrv.Close()
	}
	srv.Close()
	if rec != nil {
		rec.Close()
	}
}
