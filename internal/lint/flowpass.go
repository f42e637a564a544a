package lint

import (
	"go/ast"

	"mahjong/internal/lint/flow"
)

// This file is the bridge between the analyzer framework and the
// dataflow layer: cached per-function CFGs and reaching-definitions
// solutions on Package (several analyzers ask for the same function's
// graph).

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

// Reaching returns the reaching-definitions solution for fn, cached
// like CFG. Parameters and named results act as definitions at entry.
func (p *Package) Reaching(fn *ast.FuncDecl) *flow.ReachingDefs {
	if p.reaches == nil {
		p.reaches = make(map[*ast.FuncDecl]*flow.ReachingDefs)
	}
	if r, ok := p.reaches[fn]; ok {
		return r
	}
	var params []*ast.Ident
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			params = append(params, f.Names...)
		}
	}
	collect(fn.Recv)
	collect(fn.Type.Params)
	collect(fn.Type.Results)
	r := flow.Reach(p.CFG(fn), p.Info, params)
	p.reaches[fn] = r
	return r
}
