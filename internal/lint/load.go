package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"mahjong/internal/lint/flow"
)

// A Package is one type-checked package of the load: syntax plus full type
// information, the unit a per-package analyzer sees.
type Package struct {
	Path  string // import path
	Name  string // package name
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Lazily built CFG cache (see flowpass.go).
	cfgs map[*ast.FuncDecl]*flow.Graph
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// Load type-checks the packages matching patterns (resolved relative to dir)
// and returns them in dependency order, ready for analysis.
//
// The loader is deliberately stdlib-only: it shells out to `go list -export
// -deps` for package metadata and export-data locations, parses the matched
// packages from source, and type-checks them with go/types, importing
// dependencies (the standard library included) through the toolchain's own
// export data. Only non-test GoFiles are analyzed — tests routinely and
// legitimately break the pipeline invariants (context.Background in tests is
// fine; fault-injection tests panic on purpose).
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,Standard,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no packages matched %s", strings.Join(patterns, " "))
	}

	fset := token.NewFileSet()
	imp := &loadImporter{
		exports: exports,
		sources: make(map[string]*types.Package),
	}
	imp.gc = importer.ForCompiler(fset, "gc", imp.lookup)

	var pkgs []*Package
	// `go list -deps` emits dependencies before dependents, so by the time a
	// package is checked every module-internal import is already in sources.
	for _, t := range targets {
		files := make([]*ast.File, 0, len(t.GoFiles))
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", filepath.Join(t.Dir, name), err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
		}
		imp.sources[t.ImportPath] = tpkg
		pkgs = append(pkgs, &Package{
			Path:  t.ImportPath,
			Name:  tpkg.Name(),
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return pkgs, nil
}

// loadImporter resolves imports during type-checking: packages already
// checked from source are returned directly (keeping object identity
// consistent across the load); everything else — the standard library and
// module packages outside the pattern — comes from compiler export data.
type loadImporter struct {
	exports map[string]string
	sources map[string]*types.Package
	gc      types.Importer
}

func (l *loadImporter) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data recorded for %q", path)
	}
	return os.Open(file)
}

func (l *loadImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.sources[path]; ok {
		return p, nil
	}
	return l.gc.Import(path)
}
