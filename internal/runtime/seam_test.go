package runtime_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestProtocolPackagesStayEngineNeutral enforces the runtime seam at build
// time: the protocol packages may depend on the runtime interfaces only,
// never on a concrete engine. If this test fails, engine-specific types have
// leaked back into protocol code and the live deployment no longer runs the
// same implementation as the simulator.
//
// Test files are exempt: they legitimately use the DES engine as a
// deterministic oracle for protocol behaviour.
func TestProtocolPackagesStayEngineNeutral(t *testing.T) {
	protocol := []string{"agent", "replica", "core", "reliable", "optimistic"}
	forbidden := []string{"repro/internal/des", "repro/internal/simnet", "repro/internal/runtime/live", "repro/internal/desengine"}

	fset := token.NewFileSet()
	for _, pkg := range protocol {
		dir := filepath.Join("..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			for _, imp := range f.Imports {
				ipath, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("%s: bad import %s", path, imp.Path.Value)
				}
				for _, bad := range forbidden {
					if ipath == bad {
						t.Errorf("%s imports %s: protocol packages must depend only on internal/runtime interfaces", path, ipath)
					}
				}
			}
		}
	}
}

// TestNoPackageImportsGob keeps the live fabric on one codec: agent state
// and fabric frames travel as internal/wire encodings, and a second,
// reflective encoding would reopen the fork the wire codec closed
// (DESIGN.md §11). It walks every non-test Go file of the module.
//
// Test files are exempt: the DES byte-model calibration check measures
// agent state against a gob reference encoding.
func TestNoPackageImportsGob(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if ipath, _ := strconv.Unquote(imp.Path.Value); ipath == "encoding/gob" {
				t.Errorf("%s imports encoding/gob: the wire codec is the only encoding", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
