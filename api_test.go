package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyAPI lists the exported functions and methods under internal/
// that no production code names, each with the reason it stays:
// oracle, test seam, fixture builder, interface method, read by
// bench/, or a fact a test reads that no production accessor gives.
var testOnlyAPI = map[string]string{
	"ReferenceWalk":      "oracle: the map-backed walk kernel the CSR walker is held bit-identical to and benchmarked against",
	"ReferenceCompute":   "oracle: the edge-push PageRank kernel the pull kernel is held equal to and benchmarked against",
	"BuildIndex":         "oracle: builds namematch.Index, the brute-force candidate index the surface trie is held equal to",
	"MixDists":           "oracle: the CSR mixture Walker.WalkMixtureDist is held bit-identical to",
	"Equal":              "oracle: tolerance comparison of sparse.Dist and sparse.Vector in the walk and accumulator tests",
	"IsDistribution":     "oracle: the probability-distribution check the walk, corpus and sparse tests assert",
	"SetCandidateSource": "test seam: runs the serving path against the namematch oracle",
	"SetWeights":         "test seam: imposes meta-path weights without running EM",
	"MustParse":          "fixture builder: meta-paths from notation in tests",
	"MustAppend":         "fixture builder: staged delta objects in tests",
	"MustPatch":          "fixture builder: staged delta edges in tests",
	"Quantile":           "test reads state: TestLatencyBucketsResolveMeasuredCosts reads p50 through it; the exposition has no quantiles",
	"Unwrap":             "interface method: http.ResponseController reaches the wrapped writer through it",
}

// TestNoTestOnlyAPI stops production code that only tests call from
// growing back. It fails for every exported function or method
// declared in a non-test file under internal/ whose name appears as an
// identifier in no other non-test file under internal/, cmd/,
// examples/ or bench/, unless testOnlyAPI says why it stays; and for
// every keep-list entry that is no longer declared or is now used.
//
// The check is by name, so it is coarse: a name used anywhere, for any
// purpose (Dist.Sum hides behind every other Sum), counts as used. It
// catches regrowth; it does not prove the API minimal.
func TestNoTestOnlyAPI(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]string{} // exported name -> declaring positions
	used := map[string]bool{}
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			decls := map[*ast.Ident]bool{}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				decls[fd.Name] = true
				if root == "internal" && fd.Name.IsExported() {
					declared[fd.Name.Name] = append(declared[fd.Name.Name], fset.Position(fd.Pos()).String())
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decls[id] {
					used[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for name, at := range declared {
		if !used[name] && testOnlyAPI[name] == "" {
			t.Errorf("%s (%s) is called only by tests: delete it, or add it to testOnlyAPI with the reason it stays",
				name, strings.Join(at, ", "))
		}
	}
	for name := range testOnlyAPI {
		switch {
		case declared[name] == nil:
			t.Errorf("testOnlyAPI lists %s, which is no longer declared under internal/", name)
		case used[name]:
			t.Errorf("testOnlyAPI lists %s, which production code now uses; drop the entry", name)
		}
	}
}
