package cos

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestLibraryPackagesStayTransportFree freezes the layering rule introduced
// in PR 1 and extended by the serve subsystem: HTTP (and the other
// network-facing stdlib surfaces) may appear only at the edges —
// cmd/ binaries, internal/obs/obshttp, internal/cli, and the serve
// transport/client packages. The simulation core must stay importable from
// any context without dragging a server stack in.
//
// The test parses every non-test source file in the module, builds the
// module-internal import graph, computes the transitive closure of the
// protected packages, and fails if anything in that closure imports a
// forbidden package.
func TestLibraryPackagesStayTransportFree(t *testing.T) {
	const module = "cos"
	protected := []string{
		module,
		module + "/internal/phy",
		module + "/internal/coding",
		module + "/internal/cos",
		module + "/internal/channel",
		module + "/internal/serve",       // transport-free core; servehttp is the edge
		module + "/internal/serve/cache", // content-addressed result cache stays pure
		module + "/internal/serve/store", // durable WAL store: files only, no transport
		module + "/internal/obs/event",   // journal is transport-free; /events streams it
		module + "/internal/scenario",    // scenario registry: pure composition, no transport
		module + "/internal/scenario/all",
		module + "/internal/scenario/indoor",
		module + "/internal/scenario/outdoor",
		module + "/internal/scenario/padding",
		module + "/internal/scenario/silence",
	}
	forbidden := func(imp string) bool {
		return imp == "net/http" ||
			strings.HasPrefix(imp, "net/http/") ||
			imp == "expvar" ||
			imp == "net/rpc"
	}

	imports := moduleImports(t, module)
	for _, root := range protected {
		if _, ok := imports[root]; !ok {
			t.Fatalf("protected package %s not found in module (renamed?)", root)
		}
	}

	// Transitive closure of the protected set over module-internal edges.
	closure := map[string]bool{}
	stack := append([]string(nil), protected...)
	for len(stack) > 0 {
		pkg := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if closure[pkg] {
			continue
		}
		closure[pkg] = true
		for imp := range imports[pkg] {
			if imp == module || strings.HasPrefix(imp, module+"/") {
				stack = append(stack, imp)
			}
		}
	}

	for pkg := range closure {
		for imp := range imports[pkg] {
			if forbidden(imp) {
				t.Errorf("%s imports %s: transport packages must stay out of the simulation core (keep HTTP in cmd/, internal/cli, internal/obs/obshttp, internal/serve/http, internal/serve/client)", pkg, imp)
			}
		}
	}
}

// TestServeClientConsumers pins which packages may depend on the HTTP
// client: operator-facing binaries and the fleet coordinator (which exists
// to drive remote servers). Library packages reaching for the client would
// re-couple the core to its own transport through the back door, and new
// consumers should add themselves here deliberately.
func TestServeClientConsumers(t *testing.T) {
	const module = "cos"
	allowed := map[string]bool{
		module + "/cmd/cos-top":    true,
		module + "/internal/fleet": true,
	}
	imports := moduleImports(t, module)
	for pkg, set := range imports {
		if set[module+"/internal/serve/client"] && !allowed[pkg] {
			t.Errorf("%s imports %s/internal/serve/client; only %v may (extend the list deliberately if this is a new operator binary or coordinator layer)",
				pkg, module, []string{module + "/cmd/cos-top", module + "/internal/fleet"})
		}
	}
}

// TestFleetConsumers keeps the coordinator at the edge too: only cmd/
// binaries may import internal/fleet. The experiments layer must never
// grow a fleet dependency — it sees remote execution only through the
// RunOptions.Exec interface, which is what keeps local and fleet runs
// byte-identical by construction.
func TestFleetConsumers(t *testing.T) {
	const module = "cos"
	imports := moduleImports(t, module)
	for pkg, set := range imports {
		if set[module+"/internal/fleet"] && !strings.HasPrefix(pkg, module+"/cmd/") {
			t.Errorf("%s imports %s/internal/fleet; only cmd/ binaries may (library code integrates via experiments.RunOptions.Exec)",
				pkg, module)
		}
	}
}

// TestOneSilencePath keeps one implementation of the silence scheme: the
// interval coding, layout and detection primitives of internal/cos are
// called only by internal/cos itself and by the cos-silence embedding
// (internal/scenario/silence). Every other caller, the figures' trials
// included, goes through the embedding's Embed/Mask/Extract, so the
// figures measure the code a Link runs.
func TestOneSilencePath(t *testing.T) {
	primitives := map[string]bool{
		"EncodeIntervalsInto":  true,
		"LayoutInto":           true,
		"ExtractIntervalsInto": true,
		"DecodeIntervalsInto":  true,
		"DetectMaskInto":       true,
	}
	allowed := map[string]bool{
		"internal/cos":              true,
		"internal/scenario/silence": true,
	}
	fset := token.NewFileSet()
	for _, path := range sourceFiles(t) {
		if allowed[filepath.ToSlash(filepath.Dir(path))] {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && primitives[sel.Sel.Name] {
				t.Errorf("%s: uses %s; outside internal/cos, silences are embedded, detected and decoded through the cos-silence Embedding (internal/scenario/silence)",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// TestPublicAPIGolden pins the exported surface of package cos — every
// exported top-level constant, variable, type and function, plus the
// exported methods of exported types — against testdata/cos_api.golden.
// Growing or shrinking the library's front door is then a reviewed diff
// of that file rather than a side effect.
func TestPublicAPIGolden(t *testing.T) {
	got := strings.Join(exportedAPI(t), "\n") + "\n"
	want, err := os.ReadFile(filepath.Join("testdata", "cos_api.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported API of package cos changed; if intended, write this to testdata/cos_api.golden:\n%s", got)
	}
}

// exportedAPI parses the package's non-test sources and lists its
// exported identifiers, one "<kind> <name>" line each, sorted.
func exportedAPI(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var api []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					api = append(api, "func "+d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					api = append(api, "method "+id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							api = append(api, "type "+sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							if name.IsExported() {
								api = append(api, d.Tok.String()+" "+name.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(api)
	return api
}

// sourceFiles lists every non-test .go file under the module root,
// skipping hidden, testdata and vendor directories.
func sourceFiles(t *testing.T) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// moduleImports parses every non-test .go file under the module root and
// returns importPath -> set of imported paths.
func moduleImports(t *testing.T, module string) map[string]map[string]bool {
	t.Helper()
	imports := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range sourceFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg = module + "/" + dir
		}
		set := imports[pkg]
		if set == nil {
			set = map[string]bool{}
			imports[pkg] = set
		}
		for _, imp := range f.Imports {
			set[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	return imports
}
