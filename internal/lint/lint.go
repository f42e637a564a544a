// Package lint is mahjongvet's analysis framework: a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis surface, specialized
// for this module's project-specific invariants.
//
// Mahjong's central guarantee — merging type-consistent objects preserves the
// call graph — only holds if the implementation honors invariants the
// compiler cannot see: deterministic persist/export output (the daemon's
// cache keys hash it), panic-recovery seams at every stage boundary,
// borrowed-bitset discipline in the solver hot path, and threaded
// cancellation. The analyzers in this package (see Analyzers) encode those
// invariants as machine-checked static analyses; cmd/mahjongvet is the
// multichecker driver and `make lint` runs it over the whole module.
//
// The framework is stdlib-only on purpose: the build environment forbids new
// module dependencies, so packages are loaded through `go list -export` and
// type-checked with go/types against the toolchain's own export data (see
// Load). The Analyzer/Pass API deliberately mirrors go/analysis so the suite
// can migrate to x/tools (and `go vet -vettool`) without rewriting analyzers
// if vendoring that dependency ever becomes possible.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. Exactly one of Run (invoked
// once per loaded package) or RunModule (invoked once over the whole load,
// for cross-package registry checks) must be set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow comments.
	Name string
	// Doc is the one-paragraph description shown by `mahjongvet -list`.
	Doc string
	// Run analyzes a single package.
	Run func(*Pass)
	// RunModule analyzes all loaded packages together.
	RunModule func(*ModulePass)
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos     token.Position
	Message string
	Check   string // the reporting analyzer's name
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Check)
}

// A Pass carries one package through one analyzer.
type Pass struct {
	*Package
	// Forced marks a linttest fixture run: scope predicates (InScope,
	// UnderInternal) answer true so fixtures under testdata exercise
	// analyzers that otherwise key on real module paths.
	Forced bool

	check string
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
		Check:   p.check,
	})
}

// InScope reports whether the package under analysis is one of paths (or the
// pass is a forced fixture run).
func (p *Pass) InScope(paths ...string) bool {
	if p.Forced {
		return true
	}
	for _, path := range paths {
		if p.Path == path {
			return true
		}
	}
	return false
}

// UnderInternal reports whether the package lives under an internal/ tree
// (library code, as opposed to cmd/, examples/, or the public facade).
func (p *Pass) UnderInternal() bool {
	return p.Forced || strings.Contains(p.Path, "/internal/") || strings.HasPrefix(p.Path, "internal/")
}

// A ModulePass carries the whole load through a RunModule analyzer.
type ModulePass struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Forced marks a linttest fixture run (see Pass.Forced).
	Forced bool

	check string
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (m *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*m.diags = append(*m.diags, Diagnostic{
		Pos:     m.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
		Check:   m.check,
	})
}

// Analyzers returns mahjongvet's analyzer suite: the five syntactic
// invariant checks, plus the two concurrency analyzers built on the
// internal/lint/flow dataflow layer.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CtxFlow, RecoverSeam, BitsetAlias, MapDeterminism, StageHook,
		AtomicMix, SlotBalance,
	}
}

// RunAnalyzers runs analyzers over pkgs, applies //lint:allow suppressions,
// and returns the surviving diagnostics sorted by position. forced marks a
// linttest fixture run (see Pass.Forced).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, forced bool) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		switch {
		case a.Run != nil:
			for _, pkg := range pkgs {
				a.Run(&Pass{Package: pkg, Forced: forced, check: a.Name, diags: &diags})
			}
		case a.RunModule != nil:
			var fset *token.FileSet
			if len(pkgs) > 0 {
				fset = pkgs[0].Fset
			}
			a.RunModule(&ModulePass{Fset: fset, Pkgs: pkgs, Forced: forced, check: a.Name, diags: &diags})
		}
	}
	diags = applyAllows(pkgs, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// allowKey identifies one (file, line, analyzer) suppression.
type allowKey struct {
	file  string
	line  int
	check string
}

// applyAllows drops diagnostics suppressed by a justified
//
//	//lint:allow <analyzer> <justification>
//
// comment on the same line or the line directly above. An allow without a
// justification suppresses nothing and is itself reported: the comment is
// the audit trail for why the invariant may be broken at that site. The
// analyzer name must exist in the registry — a typo would otherwise create
// a dead suppression that silently stops guarding nothing, so unknown
// names are reported too (validated against the full suite, not the -run
// subset, so partial runs don't flag allows for analyzers they skipped).
func applyAllows(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	known := make(map[string]bool)
	var names []string
	for _, a := range Analyzers() {
		known[a.Name] = true
		names = append(names, a.Name)
	}
	allowed := make(map[allowKey]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//lint:allow")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Slash)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						diags = append(diags, Diagnostic{
							Pos:     pos,
							Message: "//lint:allow requires an analyzer name and a justification: //lint:allow <analyzer> <why this site may break the invariant>",
							Check:   "lint",
						})
						continue
					}
					if !known[fields[0]] {
						diags = append(diags, Diagnostic{
							Pos:     pos,
							Message: fmt.Sprintf("//lint:allow names unknown analyzer %q — the suppression is dead and guards nothing (known: %s)", fields[0], strings.Join(names, ", ")),
							Check:   "lint",
						})
						continue
					}
					allowed[allowKey{pos.Filename, pos.Line, fields[0]}] = true
					allowed[allowKey{pos.Filename, pos.Line + 1, fields[0]}] = true
				}
			}
		}
	}
	if len(allowed) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		if !allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Check}] {
			kept = append(kept, d)
		}
	}
	return kept
}
