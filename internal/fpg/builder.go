package fpg

import (
	"fmt"
	"sort"

	"mahjong/internal/lang"
	"mahjong/internal/pta"
)

// Builder constructs a Graph directly from (type, field, edge)
// descriptions, without running a points-to analysis. It backs unit and
// property tests of the automata layer and the heap modeler, and the
// examples that demonstrate the automata view in isolation.
type Builder struct {
	prog    *lang.Program
	holder  *lang.Method
	g       *Graph
	fields  map[string]*lang.Field
	classes map[string]*lang.Class
	edges   map[int]map[int][]int // node → field → targets
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	prog := lang.NewProgram()
	holderCls := prog.NewClass("$synthetic.Holder", nil)
	holder := holderCls.NewMethod("alloc", true, nil, nil)
	return &Builder{
		prog:    prog,
		holder:  holder,
		g:       newGraph(),
		fields:  make(map[string]*lang.Field),
		classes: make(map[string]*lang.Class),
		edges:   make(map[int]map[int][]int),
	}
}

// class returns (creating on demand) the synthetic class named typeName.
func (b *Builder) class(typeName string) *lang.Class {
	if c, ok := b.classes[typeName]; ok {
		return c
	}
	c := b.prog.NewClass(typeName, nil)
	b.classes[typeName] = c
	return c
}

// AddObj adds an abstract object of the named type and returns its node ID.
func (b *Builder) AddObj(typeName string) int {
	c := b.class(typeName)
	site := &lang.AllocSite{
		ID:     len(b.prog.Sites),
		Type:   c,
		Method: b.holder,
		Label:  fmt.Sprintf("synthetic/%s#%d", typeName, len(b.prog.Sites)),
	}
	b.prog.Sites = append(b.prog.Sites, site)
	o := &pta.Obj{ID: len(b.g.Objs) - 1, Type: c, Rep: site, Sites: []*lang.AllocSite{site}}
	return b.g.addNode(o)
}

// AddEdge adds the FPG edge (from, field, to). Use NullNode for null.
func (b *Builder) AddEdge(from int, field string, to int) {
	f, ok := b.fields[field]
	if !ok {
		f = b.prog.Object().NewField("$"+field, b.prog.Object())
		b.fields[field] = f
	}
	fid := b.g.fieldID(f)
	m := b.edges[from]
	if m == nil {
		m = make(map[int][]int)
		b.edges[from] = m
	}
	m[fid] = append(m[fid], to)
}

// Graph finalizes and returns the graph. The builder must not be used
// afterwards.
func (b *Builder) Graph() *Graph {
	for node, byField := range b.edges {
		var es []Edge
		for fid, tgts := range byField {
			sort.Ints(tgts)
			es = append(es, Edge{Field: fid, Targets: dedupSorted(tgts)})
		}
		sort.Slice(es, func(i, j int) bool { return es[i].Field < es[j].Field })
		b.g.Out[node] = es
	}
	return b.g
}
