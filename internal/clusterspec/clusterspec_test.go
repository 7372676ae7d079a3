package clusterspec

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runtime"
)

// sampleJSON is a full spec: every top-level key and every node key.
const sampleJSON = `{
	"name": "demo",
	"shards": 4,
	"geometry": "grid",
	"fsync": "commit",
	"commit_delay": "200us",
	"ack_delay": "500us",
	"seed": 7,
	"data_root": "/tmp/marp-demo",
	"nodes": [
		{"id": 1, "fabric": "127.0.0.1:7801", "client": "127.0.0.1:7707", "ops": "127.0.0.1:9101"},
		{"id": 2, "fabric": "127.0.0.1:7802", "client": "127.0.0.1:7708", "ops": "127.0.0.1:9102"},
		{"id": 3, "fabric": "127.0.0.1:7803", "client": "127.0.0.1:7709", "ops": "127.0.0.1:9103", "data_dir": "/tmp/elsewhere"}
	]
}`

func TestParseJSON(t *testing.T) {
	s, err := ParseJSON([]byte(sampleJSON))
	if err != nil {
		t.Fatalf("ParseJSON: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s.Name != "demo" || s.Shards != 4 || s.Geometry != "grid" || s.Fsync != "commit" ||
		s.CommitDelay != "200us" || s.AckDelay != "500us" || s.Seed != 7 {
		t.Errorf("top-level fields wrong: %+v", s)
	}
	if len(s.Nodes) != 3 {
		t.Fatalf("got %d nodes, want 3", len(s.Nodes))
	}
	if n := s.Nodes[1]; n.ID != 2 || n.Fabric != "127.0.0.1:7802" || n.Client != "127.0.0.1:7708" || n.Ops != "127.0.0.1:9102" {
		t.Errorf("node 2 = %+v", n)
	}
	if got := s.PeerString(); got != "1=127.0.0.1:7801,2=127.0.0.1:7802,3=127.0.0.1:7803" {
		t.Errorf("PeerString = %q", got)
	}
	if got := s.DataDirOf(1); got != filepath.Join("/tmp/marp-demo", "node-1") {
		t.Errorf("DataDirOf(1) = %q", got)
	}
	if got := s.DataDirOf(3); got != "/tmp/elsewhere" {
		t.Errorf("DataDirOf(3) = %q (explicit data_dir should win)", got)
	}
}

func TestParseJSONErrors(t *testing.T) {
	cases := []struct{ name, in, wantErr string }{
		{"not an object", `[{"id": 1}]`, "cannot unmarshal array"},
		{"no colon", `{"shards"}`, "invalid character"},
		{"unknown key", `{"color": "red"}`, `unknown field "color"`},
		{"unknown node key", `{"nodes": [{"port": 7}]}`, `unknown field "port"`},
		{"bare string", `{"name": demo}`, "invalid character"},
		{"string for int", `{"shards": "4"}`, "cannot unmarshal string"},
		{"int for string", `{"name": 3}`, "cannot unmarshal number"},
		{"missing value", `{"name": }`, "invalid character"},
		{"trailing data", `{"name": "a"} {"name": "b"}`, "trailing data"},
	}
	for _, c := range cases {
		if _, err := ParseJSON([]byte(c.in)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func validSpec() *Spec {
	return &Spec{
		Shards:   2,
		Geometry: "majority",
		Nodes: []Node{
			{ID: 1, Fabric: "127.0.0.1:7801", Client: "127.0.0.1:7707", Ops: "127.0.0.1:9101"},
			{ID: 2, Fabric: "127.0.0.1:7802"},
			{ID: 3, Fabric: "127.0.0.1:7803"},
		},
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"no nodes", func(s *Spec) { s.Nodes = nil }, "no nodes"},
		{"duplicate id", func(s *Spec) { s.Nodes[1].ID = 1 }, "duplicate node id"},
		{"zero id", func(s *Spec) { s.Nodes[0].ID = 0 }, "want >= 1"},
		{"missing fabric", func(s *Spec) { s.Nodes[2].Fabric = "" }, "missing address"},
		{"unparseable fabric", func(s *Spec) { s.Nodes[0].Fabric = "localhost" }, "bad address"},
		{"hostless fabric", func(s *Spec) { s.Nodes[0].Fabric = ":7801" }, "no host"},
		{"duplicate address", func(s *Spec) { s.Nodes[1].Fabric = "127.0.0.1:7801" }, "already used"},
		{"bad client", func(s *Spec) { s.Nodes[0].Client = "nope" }, "bad address"},
		{"bad geometry", func(s *Spec) { s.Geometry = "ring" }, "geometry"},
		{"bad fsync", func(s *Spec) { s.Fsync = "sometimes" }, "fsync"},
		{"bad delay", func(s *Spec) { s.CommitDelay = "fast" }, "commit_delay"},
		{"negative delay", func(s *Spec) { s.AckDelay = "-1ms" }, "negative"},
	}
	for _, c := range cases {
		s := validSpec()
		c.mutate(s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
	if err := validSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestLoadJSONAndTOML loads the JSON form and checks that every other
// input is refused by Load: TOML (no longer a spec format), other
// extensions, missing files, and JSON with misspelled or retired keys,
// which a lenient decoder would silently drop.
func TestLoadJSONAndTOML(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	got, err := Load(write("c.json", sampleJSON))
	if err != nil {
		t.Fatalf("Load json: %v", err)
	}
	want, err := ParseJSON([]byte(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Load and ParseJSON disagree:\nload:  %+v\nparse: %+v", got, want)
	}
	for _, c := range []struct{ name, path, wantErr string }{
		{"toml", write("c.toml", "[[node]]\nid = 1\nfabric = \"127.0.0.1:1\"\n"), ".json"},
		{"yaml", write("c.yaml", "x"), "unknown spec format"},
		{"missing file", filepath.Join(dir, "missing.json"), "no such file"},
		{"top-level typo", write("shard.json", `{"shard": 4, "nodes": [{"id": 1, "fabric": "127.0.0.1:1"}]}`), `unknown field "shard"`},
		{"node typo", write("clinet.json", `{"nodes": [{"id": 1, "fabric": "127.0.0.1:1", "clinet": "x"}]}`), `unknown field "clinet"`},
		{"retired codec key", write("codec.json", `{"codec": "gob", "nodes": [{"id": 1, "fabric": "127.0.0.1:1"}]}`), `unknown field "codec"`},
		{"invalid spec", write("dup.json", `{"nodes": [{"id": 1, "fabric": "127.0.0.1:1"}, {"id": 1, "fabric": "127.0.0.1:2"}]}`), "duplicate node id"},
	} {
		if _, err := Load(c.path); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: Load err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func TestFlags(t *testing.T) {
	s, err := ParseJSON([]byte(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	got := s.Flags(2)
	want := []string{
		"-mode", "live", "-node", "2",
		"-peers", "1=127.0.0.1:7801,2=127.0.0.1:7802,3=127.0.0.1:7803",
		"-addr", "127.0.0.1:7708",
		"-ops", "127.0.0.1:9102",
		"-data-dir", filepath.Join("/tmp/marp-demo", "node-2"),
		"-fsync", "commit",
		"-shards", "4",
		"-geometry", "grid",
		"-seed", "7",
		"-commit-delay", "200us",
		"-ack-delay", "500us",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Flags(2) =\n%v\nwant\n%v", got, want)
	}
	if s.Flags(9) != nil {
		t.Error("Flags of unknown node should be nil")
	}
}

func TestParsePeers(t *testing.T) {
	addrs, err := ParsePeers("1=127.0.0.1:7801, 2=127.0.0.1:7802")
	if err != nil {
		t.Fatalf("ParsePeers: %v", err)
	}
	if len(addrs) != 2 || addrs[1] != "127.0.0.1:7801" {
		t.Errorf("addrs = %v", addrs)
	}
	for _, bad := range []struct{ in, wantErr string }{
		{"1=a:1,1=b:2", "duplicate peer id"},
		{"one=a:1", "bad peer id"},
		{"0=a:1", "bad peer id"},
		{"justanaddr", "want id=host:port"},
	} {
		if _, err := ParsePeers(bad.in); err == nil || !strings.Contains(err.Error(), bad.wantErr) {
			t.Errorf("ParsePeers(%q) err = %v, want %q", bad.in, err, bad.wantErr)
		}
	}
}

func TestValidatePeers(t *testing.T) {
	addrs := map[runtime.NodeID]string{1: "127.0.0.1:7801", 2: "127.0.0.1:7802"}
	if err := ValidatePeers(1, addrs); err != nil {
		t.Errorf("ValidatePeers(self present): %v", err)
	}
	if err := ValidatePeers(3, addrs); err == nil || !strings.Contains(err.Error(), "no entry for this process") {
		t.Errorf("missing self err = %v", err)
	}
	if err := ValidatePeers(0, addrs); err == nil {
		t.Error("ValidatePeers accepted node 0")
	}
	bad := map[runtime.NodeID]string{1: "notanaddr"}
	if err := ValidatePeers(1, bad); err == nil || !strings.Contains(err.Error(), "bad address") {
		t.Errorf("bad addr err = %v", err)
	}
}
