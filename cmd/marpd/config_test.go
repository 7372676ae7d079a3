package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The resolveLive errors below are exactly the cases marpd exits 2 on:
// operator mistakes in -peers or -spec caught before anything listens.

func baseFlags() liveFlags {
	return liveFlags{
		Node:     2,
		Peers:    "1=127.0.0.1:7801,2=127.0.0.1:7802,3=127.0.0.1:7803",
		Addr:     "127.0.0.1:7707",
		Seed:     1,
		Fsync:    "commit",
		Shards:   1,
		Geometry: "majority",
	}
}

func TestResolveLivePeers(t *testing.T) {
	cfg, client, opsAddr, err := resolveLive(baseFlags())
	if err != nil {
		t.Fatalf("resolveLive: %v", err)
	}
	if cfg.Self != 2 || len(cfg.Addrs) != 3 || cfg.Addrs[3] != "127.0.0.1:7803" {
		t.Errorf("cfg = %+v", cfg)
	}
	if client != "127.0.0.1:7707" || opsAddr != "" {
		t.Errorf("client = %q, ops = %q", client, opsAddr)
	}
}

func TestResolveLivePeerErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*liveFlags)
		wantErr string
	}{
		{"duplicate node id", func(f *liveFlags) {
			f.Peers = "1=127.0.0.1:7801,1=127.0.0.1:7802"
			f.Node = 1
		}, "duplicate peer id"},
		{"missing self entry", func(f *liveFlags) { f.Node = 9 }, "no entry for this process"},
		{"zero node id", func(f *liveFlags) { f.Node = 0 }, "want >= 1"},
		{"unparseable addr", func(f *liveFlags) {
			f.Peers = "1=127.0.0.1:7801,2=localhost"
		}, "bad address"},
		{"malformed peer entry", func(f *liveFlags) { f.Peers = "oops" }, "want id=host:port"},
		{"bad geometry", func(f *liveFlags) { f.Geometry = "ring" }, "geometry"},
	}
	for _, c := range cases {
		f := baseFlags()
		c.mutate(&f)
		if _, _, _, err := resolveLive(f); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func TestResolveLiveSpec(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "cluster.json")
	if err := os.WriteFile(specPath, []byte(`{
	"shards": 2,
	"geometry": "majority",
	"fsync": "none",
	"commit_delay": "150us",
	"seed": 11,
	"data_root": `+strconv.Quote(dir)+`,
	"nodes": [
		{"id": 1, "fabric": "127.0.0.1:7801", "client": "127.0.0.1:7707", "ops": "127.0.0.1:9101"},
		{"id": 2, "fabric": "127.0.0.1:7802", "client": "127.0.0.1:7708", "ops": "127.0.0.1:9102"},
		{"id": 3, "fabric": "127.0.0.1:7803", "client": "127.0.0.1:7709", "ops": "127.0.0.1:9103"}
	]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f := baseFlags()
	f.Peers = ""
	f.Spec = specPath
	cfg, client, opsAddr, err := resolveLive(f)
	if err != nil {
		t.Fatalf("resolveLive(spec): %v", err)
	}
	if cfg.Self != 2 || len(cfg.Addrs) != 3 || cfg.Fsync != "none" || cfg.Seed != 11 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.CommitDelay != 150*time.Microsecond {
		t.Errorf("CommitDelay = %v", cfg.CommitDelay)
	}
	if cfg.Cluster.Shards != 2 {
		t.Errorf("Shards = %d", cfg.Cluster.Shards)
	}
	if cfg.DataDir != filepath.Join(dir, "node-2") {
		t.Errorf("DataDir = %q", cfg.DataDir)
	}
	if client != "127.0.0.1:7708" || opsAddr != "127.0.0.1:9102" {
		t.Errorf("client = %q, ops = %q", client, opsAddr)
	}

	// The spec must contain this process's node.
	f.Node = 9
	if _, _, _, err := resolveLive(f); err == nil || !strings.Contains(err.Error(), "no node 9") {
		t.Errorf("missing node err = %v", err)
	}

	// A spec that fails validation (duplicate IDs) is rejected.
	badPath := filepath.Join(dir, "bad.json")
	os.WriteFile(badPath, []byte(`{"nodes": [{"id": 1, "fabric": "127.0.0.1:1"}, {"id": 1, "fabric": "127.0.0.1:2"}]}`), 0o644)
	f = baseFlags()
	f.Spec, f.Peers, f.Node = badPath, "", 1
	if _, _, _, err := resolveLive(f); err == nil || !strings.Contains(err.Error(), "duplicate node id") {
		t.Errorf("duplicate-id spec err = %v", err)
	}
}
