package lint

import (
	"go/ast"

	"mahjong/internal/lint/flow"
)

// This file is the bridge between the analyzer framework and the
// dataflow layer: cached per-function CFGs on Package (several
// analyzers ask for the same function's graph).

// CFG returns the control-flow graph of fn's body, built on first use
// and cached for the lifetime of the load.
func (p *Package) CFG(fn *ast.FuncDecl) *flow.Graph {
	if p.cfgs == nil {
		p.cfgs = make(map[*ast.FuncDecl]*flow.Graph)
	}
	if g, ok := p.cfgs[fn]; ok {
		return g
	}
	g := flow.New(fn.Body)
	p.cfgs[fn] = g
	return g
}
