// Package clusterspec is the declarative description of a live MARP
// cluster: which nodes exist, where they listen (fabric, client, ops),
// how the key space is sharded, which quorum geometry and fsync policy
// apply, and where durable state lives. One spec file replaces the
// hand-written -peers string every process had to agree on —
// `marpd -spec cluster.json -node 2` derives all its flags from the
// file, and `marpctl spec expand cluster.json` prints the per-node
// flag sets for anyone scripting around it.
//
// Specs are JSON. Unknown keys are refused, so a typo never silently
// drops a setting.
package clusterspec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/quorum"
	"repro/internal/runtime"
)

// Node is one replica process in the cluster.
type Node struct {
	// ID is the replica's node ID (unique, >= 1).
	ID int `json:"id"`
	// Fabric is the host:port the replica's fabric listener binds and
	// peers dial; required, and the host part must be non-empty so other
	// nodes can reach it.
	Fabric string `json:"fabric"`
	// Client is the optional host:port for the line-JSON client
	// protocol (marpctl). Empty = no client listener derived from the
	// spec (marpd's -addr default applies).
	Client string `json:"client,omitempty"`
	// Ops is the optional host:port for the ops listener (/metrics,
	// /healthz). Empty = no ops listener.
	Ops string `json:"ops,omitempty"`
	// DataDir is the replica's durability directory. Empty with a
	// spec-level DataRoot means DataRoot/node-<ID>; empty without one
	// means the replica runs volatile.
	DataDir string `json:"data_dir,omitempty"`
}

// Spec is a whole cluster's declarative description.
type Spec struct {
	// Name labels the cluster in diagnostics. Optional.
	Name string `json:"name,omitempty"`
	// Shards is the key-space shard count (default 1).
	Shards int `json:"shards,omitempty"`
	// Geometry is the quorum geometry: majority (default), grid, tree.
	Geometry string `json:"geometry,omitempty"`
	// Fsync is the WAL fsync policy when a node is durable: commit
	// (default), always, none.
	Fsync string `json:"fsync,omitempty"`
	// CommitDelay is the WAL group-commit window as a Go duration
	// string ("200us"); empty = fsync per commit.
	CommitDelay string `json:"commit_delay,omitempty"`
	// AckDelay is the migration ack aggregation window as a Go
	// duration string; empty = ack immediately.
	AckDelay string `json:"ack_delay,omitempty"`
	// Seed is the per-process random seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DataRoot, when set, gives every node without an explicit DataDir
	// the directory DataRoot/node-<ID>.
	DataRoot string `json:"data_root,omitempty"`
	// Nodes lists the cluster's replicas.
	Nodes []Node `json:"nodes"`
}

// Load reads and validates a JSON spec file.
func Load(path string) (*Spec, error) {
	if ext := strings.ToLower(filepath.Ext(path)); ext != ".json" {
		return nil, fmt.Errorf("clusterspec: unknown spec format %q (specs are .json)", ext)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseJSON(data)
	if err != nil {
		return nil, fmt.Errorf("clusterspec: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("clusterspec: %s: %w", path, err)
	}
	return s, nil
}

// ParseJSON parses (but does not validate) a JSON spec. Unknown keys and
// trailing data are errors.
func ParseJSON(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing data after the spec object")
	}
	return &s, nil
}

// Validate checks the spec's internal consistency: at least one node,
// unique positive IDs, required and parseable fabric addresses, no
// address claimed twice, known geometry/fsync, parseable delays.
func (s *Spec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("spec has no nodes")
	}
	if s.Shards < 0 {
		return fmt.Errorf("shards = %d, want >= 1", s.Shards)
	}
	if s.Geometry != "" {
		if _, err := quorum.ParseGeometry(s.Geometry); err != nil {
			return err
		}
	}
	switch s.Fsync {
	case "", "commit", "always", "none":
	default:
		return fmt.Errorf("unknown fsync policy %q (want commit, always, none)", s.Fsync)
	}
	for _, field := range []struct{ name, v string }{
		{"commit_delay", s.CommitDelay}, {"ack_delay", s.AckDelay},
	} {
		if field.v == "" {
			continue
		}
		d, err := time.ParseDuration(field.v)
		if err != nil {
			return fmt.Errorf("bad %s %q: %v", field.name, field.v, err)
		}
		if d < 0 {
			return fmt.Errorf("negative %s %q", field.name, field.v)
		}
	}
	seenID := make(map[int]bool)
	seenAddr := make(map[string]string) // addr -> "node 2 fabric"
	claim := func(addr, what string, required bool) error {
		if addr == "" {
			if required {
				return fmt.Errorf("%s: missing address", what)
			}
			return nil
		}
		host, _, err := net.SplitHostPort(addr)
		if err != nil {
			return fmt.Errorf("%s: bad address %q: %v", what, addr, err)
		}
		if required && host == "" {
			return fmt.Errorf("%s: address %q has no host (peers must be able to dial it)", what, addr)
		}
		if prev, dup := seenAddr[addr]; dup {
			return fmt.Errorf("%s: address %q already used by %s", what, addr, prev)
		}
		seenAddr[addr] = what
		return nil
	}
	for _, n := range s.Nodes {
		if n.ID < 1 {
			return fmt.Errorf("node id %d, want >= 1", n.ID)
		}
		if seenID[n.ID] {
			return fmt.Errorf("duplicate node id %d", n.ID)
		}
		seenID[n.ID] = true
		what := fmt.Sprintf("node %d", n.ID)
		if err := claim(n.Fabric, what+" fabric", true); err != nil {
			return err
		}
		if err := claim(n.Client, what+" client", false); err != nil {
			return err
		}
		if err := claim(n.Ops, what+" ops", false); err != nil {
			return err
		}
	}
	return nil
}

// Find returns the node with the given ID, or nil.
func (s *Spec) Find(id int) *Node {
	for i := range s.Nodes {
		if s.Nodes[i].ID == id {
			return &s.Nodes[i]
		}
	}
	return nil
}

// IDs returns the node IDs in ascending order.
func (s *Spec) IDs() []int {
	ids := make([]int, 0, len(s.Nodes))
	for _, n := range s.Nodes {
		ids = append(ids, n.ID)
	}
	sort.Ints(ids)
	return ids
}

// FabricAddrs returns the fabric address map every live replica process
// must agree on — the programmatic form of the -peers string.
func (s *Spec) FabricAddrs() map[runtime.NodeID]string {
	addrs := make(map[runtime.NodeID]string, len(s.Nodes))
	for _, n := range s.Nodes {
		addrs[runtime.NodeID(n.ID)] = n.Fabric
	}
	return addrs
}

// PeerString renders the -peers flag value: "1=host:port,2=host:port",
// ascending by ID.
func (s *Spec) PeerString() string {
	parts := make([]string, 0, len(s.Nodes))
	for _, id := range s.IDs() {
		parts = append(parts, fmt.Sprintf("%d=%s", id, s.Find(id).Fabric))
	}
	return strings.Join(parts, ",")
}

// DataDirOf returns the durability directory for a node: its explicit
// DataDir, else DataRoot/node-<id>, else "" (volatile).
func (s *Spec) DataDirOf(id int) string {
	n := s.Find(id)
	if n == nil {
		return ""
	}
	if n.DataDir != "" {
		return n.DataDir
	}
	if s.DataRoot != "" {
		return filepath.Join(s.DataRoot, fmt.Sprintf("node-%d", id))
	}
	return ""
}

// Flags renders the marpd argv a node would run with if it consumed the
// spec by hand — what `marpctl spec expand` prints, and a readable
// definition of exactly which settings -spec derives.
func (s *Spec) Flags(id int) []string {
	n := s.Find(id)
	if n == nil {
		return nil
	}
	args := []string{"-mode", "live", "-node", strconv.Itoa(id), "-peers", s.PeerString()}
	if n.Client != "" {
		args = append(args, "-addr", n.Client)
	}
	if n.Ops != "" {
		args = append(args, "-ops", n.Ops)
	}
	if dir := s.DataDirOf(id); dir != "" {
		args = append(args, "-data-dir", dir)
	}
	if s.Fsync != "" {
		args = append(args, "-fsync", s.Fsync)
	}
	if s.Shards != 0 {
		args = append(args, "-shards", strconv.Itoa(s.Shards))
	}
	if s.Geometry != "" {
		args = append(args, "-geometry", s.Geometry)
	}
	if s.Seed != 0 {
		args = append(args, "-seed", strconv.FormatInt(s.Seed, 10))
	}
	if s.CommitDelay != "" {
		args = append(args, "-commit-delay", s.CommitDelay)
	}
	if s.AckDelay != "" {
		args = append(args, "-ack-delay", s.AckDelay)
	}
	return args
}

// ParsePeers turns "1=host:port,2=host:port,..." into the address map
// every live replica process must agree on. Unlike a plain map insert it
// rejects duplicate IDs — a typo like "1=a,1=b" used to silently drop
// an address.
func ParsePeers(spec string) (map[runtime.NodeID]string, error) {
	addrs := make(map[runtime.NodeID]string)
	for _, part := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		n, err := strconv.Atoi(id)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad peer id %q", id)
		}
		if prev, dup := addrs[runtime.NodeID(n)]; dup {
			return nil, fmt.Errorf("duplicate peer id %d (%s and %s)", n, prev, addr)
		}
		addrs[runtime.NodeID(n)] = addr
	}
	return addrs, nil
}

// ValidatePeers checks a parsed peer map from one process's standpoint:
// the process's own ID must appear, and every address must parse as
// host:port.
func ValidatePeers(self runtime.NodeID, addrs map[runtime.NodeID]string) error {
	if self < 1 {
		return fmt.Errorf("node id %d, want >= 1", self)
	}
	if _, ok := addrs[self]; !ok {
		return fmt.Errorf("peers have no entry for this process (node %d)", self)
	}
	for id, addr := range addrs {
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return fmt.Errorf("peer %d: bad address %q: %v", id, addr, err)
		}
	}
	return nil
}
