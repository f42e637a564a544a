// Package delta is the incremental front half of the analysis engine:
// it canonicalizes IR at class/method granularity, content-hashes each
// unit, and diffs two programs into (a) an eligibility verdict — can
// the edit be replayed incrementally at all — and (b) structural
// translation maps that rebind the retained base analysis state
// (variables, fields, allocation sites) to the next program.
//
// The granularity contract: an edit is *body-only* when the two
// programs have the same class shapes (names, hierarchy, interfaces,
// declared fields, method signatures) and the same entry point, so they
// differ at most in method bodies. Only body-only edits are eligible
// for incremental replay (internal/pta.SolveIncrementalContext);
// anything else — a new class, a changed field, a different override
// set — changes dispatch or storage structure and falls back to a
// from-scratch solve with a recorded reason.
//
// Identity across programs is structural, never positional or global:
// classes match by name, methods by "Owner.name/arity", fields by
// owner+name, variables by index within a body-identical method, and
// allocation sites by (method, ordinal of the alloc within the body).
// AllocSite.Label is NOT a translation key — it embeds a program-wide
// counter that shifts when any earlier method's allocation count
// changes.
package delta

import (
	"crypto/sha256"
	"fmt"

	"mahjong/internal/failure"
	"mahjong/internal/faultinject"
	"mahjong/internal/lang"
	"mahjong/internal/parser"
	"mahjong/internal/trace"
)

// UnitHash is the content hash of one canonical unit (a method body or
// a class shape).
type UnitHash [sha256.Size]byte

// hasher content-hashes canonical units (parser.MethodText and
// parser.ClassShape) through one text buffer that it reuses from unit
// to unit; Compute makes one per call.
type hasher struct{ buf []byte }

// method hashes m's signature, locals and statements; an abstract
// method hashes its signature line.
func (h *hasher) method(m *lang.Method) UnitHash {
	h.buf = parser.AppendMethod(h.buf[:0], m)
	return sha256.Sum256(h.buf)
}

// shape hashes everything about c except its method bodies.
func (h *hasher) shape(c *lang.Class) UnitHash {
	h.buf = parser.AppendClassShape(h.buf[:0], c)
	return sha256.Sum256(h.buf)
}

// Options configures Compute.
type Options struct {
	// Trace records one "delta.diff" span covering the diff. The zero
	// value disables tracing.
	Trace trace.Ctx
}

// Diff is the outcome of comparing a base program against its successor.
type Diff struct {
	Base, Next *lang.Program

	// BodyOnly reports that the programs differ at most in method
	// bodies; only then are the translation maps populated and the edit
	// eligible for incremental replay.
	BodyOnly bool
	// Reason says why BodyOnly is false ("" when it is true).
	Reason string

	// TotalMethods counts the concrete methods compared; Changed lists
	// the base methods whose body hash differs from their counterpart.
	TotalMethods int
	Changed      []*lang.Method

	// Methods maps every matched base method to its successor.
	Methods map[*lang.Method]*lang.Method
	// Vars maps variables of body-unchanged methods (this, params,
	// $ret, $exc, declared locals) to their successors.
	Vars map[*lang.Var]*lang.Var
	// Fields maps every matched field (by owner class + name).
	Fields map[*lang.Field]*lang.Field
	// Sites maps allocation sites of body-unchanged methods by their
	// ordinal within the method body.
	Sites map[*lang.AllocSite]*lang.AllocSite
	// Invokes maps call statements of body-unchanged methods by their
	// statement position (equal canonical text makes the bodies
	// positionally alike), letting the solver translate retained call
	// edges instead of re-dispatching them.
	Invokes map[*lang.Invoke]*lang.Invoke

	// Additive reports that every changed method only *grew*: each base
	// statement still renders to an identical canonical line in the
	// successor body and no local was removed or retyped. The analysis
	// is monotone, so an additive edit leaves every base fact below the
	// edited program's fixpoint — the solver can replay the whole base
	// state without any invalidation. For additive pairs the Vars,
	// Sites, and Invokes maps cover the changed methods too (matched by
	// name and canonical line instead of position).
	Additive bool

	changed map[*lang.Method]bool
}

// MethodChanged reports whether base method m's body differs in Next
// (true for every method when the diff is not BodyOnly).
func (d *Diff) MethodChanged(m *lang.Method) bool {
	if !d.BodyOnly {
		return true
	}
	return d.changed[m]
}

// Compute diffs base against next. It never fails on a mere mismatch —
// structural differences surface as BodyOnly=false with a Reason — and
// returns an error only for injected faults or internal bugs, which
// callers answer by falling back to a from-scratch solve.
func Compute(base, next *lang.Program, opts Options) (d *Diff, err error) {
	// Span-close defer precedes the stage guard so it observes the
	// recovered error (see pta.SolveContext for the idiom).
	sp := opts.Trace.Start(faultinject.StageDelta)
	defer func() { sp.Close(err) }()
	defer failure.Recover(faultinject.StageDelta, &err)
	if err := faultinject.Fire(faultinject.StageDelta); err != nil {
		return nil, fmt.Errorf("delta: diff: %w", err)
	}

	d = &Diff{
		Base:    base,
		Next:    next,
		Methods: map[*lang.Method]*lang.Method{},
		Vars:    map[*lang.Var]*lang.Var{},
		Fields:  map[*lang.Field]*lang.Field{},
		Sites:   map[*lang.AllocSite]*lang.AllocSite{},
		Invokes: map[*lang.Invoke]*lang.Invoke{},
		changed: map[*lang.Method]bool{},
	}
	d.BodyOnly, d.Reason = d.compare()
	sp.Add("methods_total", int64(d.TotalMethods))
	sp.Add("methods_changed", int64(len(d.Changed)))
	if !d.BodyOnly {
		sp.Add("shape_mismatch", 1)
	}
	return d, nil
}

// compare performs the shape check and, when it passes, builds the
// translation maps and the changed-method set.
func (d *Diff) compare() (bool, string) {
	base, next := d.Base, d.Next
	var h hasher

	if base.Entry == nil || next.Entry == nil {
		return false, "missing entry point"
	}
	if base.Entry.String() != next.Entry.String() {
		return false, fmt.Sprintf("entry changed: %s -> %s", base.Entry, next.Entry)
	}

	// Class shapes must agree on the named (non-array) classes. Array
	// classes are created on demand by the statements that mention them,
	// so they are matched opportunistically below: a body-identical
	// method recreates exactly the arrays it uses.
	baseNamed, nextNamed := 0, 0
	for _, c := range base.Classes {
		if !c.IsArray() {
			baseNamed++
		}
	}
	for _, c := range next.Classes {
		if !c.IsArray() {
			nextNamed++
		}
	}
	if baseNamed != nextNamed {
		return false, fmt.Sprintf("class count changed: %d -> %d", baseNamed, nextNamed)
	}
	for _, bc := range base.Classes {
		if bc.IsArray() {
			continue
		}
		nc := next.Class(bc.Name)
		if nc == nil {
			return false, fmt.Sprintf("class %s removed", bc.Name)
		}
		if h.shape(bc) != h.shape(nc) {
			return false, fmt.Sprintf("class %s shape changed", bc.Name)
		}
	}

	// Shapes agree: translate fields and methods, then diff bodies.
	additive := true
	for _, bc := range base.Classes {
		nc := next.Class(bc.Name)
		if nc == nil {
			continue // base-only array class; nothing referenced it cleanly
		}
		for _, bf := range bc.DeclaredFields {
			if nf := nc.Field(bf.Name); nf != nil {
				d.Fields[bf] = nf
			}
		}
		for _, bm := range bc.DeclaredMethods {
			nm := nc.DeclaredMethod(bm.Sig())
			if nm == nil {
				continue // shape equality makes this unreachable for named classes
			}
			d.Methods[bm] = nm
			if bm.IsAbstract {
				continue
			}
			d.TotalMethods++
			if h.method(bm) != h.method(nm) || !d.translateBody(bm, nm) {
				d.changed[bm] = true
				d.Changed = append(d.Changed, bm)
				if !d.translateGrown(bm, nm) {
					additive = false
				}
			}
		}
	}
	d.Additive = additive
	return true, ""
}

// translateBody maps the variables and allocation sites of a
// body-identical method pair. It returns false — demoting the pair to
// "changed" — if the bodies are not, after all, positionally alike;
// with equal canonical text that never happens, so the checks are a
// cheap defense against hash collisions and builder drift.
func (d *Diff) translateBody(bm, nm *lang.Method) bool {
	// The solver creates a method's "$exc" variable lazily when a call
	// edge first reaches it, so a previously analyzed base method may
	// carry a $exc local its freshly parsed successor has not grown yet
	// (and its position within Locals depends on creation time). Compare
	// the named locals positionally and bind $exc by name below.
	bLocals := withoutExc(bm.Locals)
	nLocals := withoutExc(nm.Locals)
	if len(bLocals) != len(nLocals) {
		return false
	}
	for i, bv := range bLocals {
		nv := nLocals[i]
		if bv.Name != nv.Name || bv.Type.Name != nv.Type.Name {
			return false
		}
	}
	if len(bm.Stmts) != len(nm.Stmts) {
		return false
	}
	var bAllocs, nAllocs []*lang.Alloc
	for _, st := range bm.Stmts {
		if a, ok := st.(*lang.Alloc); ok {
			bAllocs = append(bAllocs, a)
		}
	}
	for _, st := range nm.Stmts {
		if a, ok := st.(*lang.Alloc); ok {
			nAllocs = append(nAllocs, a)
		}
	}
	if len(bAllocs) != len(nAllocs) {
		return false
	}
	for i, ba := range bAllocs {
		if ba.Site.Type.Name != nAllocs[i].Site.Type.Name {
			return false
		}
	}
	for i, bv := range bLocals {
		d.Vars[bv] = nLocals[i]
	}
	if bm.HasExcVar() {
		// Creating the successor's $exc here is exactly what the next
		// solve would do on its first call edge into nm.
		d.Vars[bm.ExcVar()] = nm.ExcVar()
	}
	for i, ba := range bAllocs {
		d.Sites[ba.Site] = nAllocs[i].Site
	}
	for i, st := range bm.Stmts {
		if binv, ok := st.(*lang.Invoke); ok {
			if ninv, ok := nm.Stmts[i].(*lang.Invoke); ok {
				d.Invokes[binv] = ninv
			}
		}
	}
	return true
}

// translateGrown maps a *changed* method pair whose edit only added
// statements (or reordered them — the solver treats a body as a set of
// constraints). Each base statement must render to a canonical line
// some unclaimed successor statement renders to as well, and every base
// local must survive under its name and type. Matching same-text
// statements in occurrence order is sound regardless of which
// occurrence "really" corresponds: identical lines in the same method
// impose identical constraints, so any base derivation maps to a valid
// successor derivation either way. On success the pair's variables,
// allocation sites, and call statements join the translation maps and
// the method stays in Changed (its new statements still need a cold
// pass); on failure the maps are untouched.
func (d *Diff) translateGrown(bm, nm *lang.Method) bool {
	byName := make(map[string]*lang.Var)
	for _, nv := range withoutExc(nm.Locals) {
		byName[nv.Name] = nv
	}
	bLocals := withoutExc(bm.Locals)
	vars := make(map[*lang.Var]*lang.Var, len(bLocals))
	for _, bv := range bLocals {
		nv := byName[bv.Name]
		if nv == nil || bv.Type.Name != nv.Type.Name {
			return false
		}
		vars[bv] = nv
	}

	// Key on concrete kind + text: a Load and a StaticLoad can render
	// alike when a variable shadows a class name.
	key := func(st lang.Stmt) string {
		return fmt.Sprintf("%T %s", st, parser.StmtText(st))
	}
	unclaimed := make(map[string][]lang.Stmt)
	for _, st := range nm.Stmts {
		k := key(st)
		unclaimed[k] = append(unclaimed[k], st)
	}
	type stmtPair struct{ b, n lang.Stmt }
	pairs := make([]stmtPair, 0, len(bm.Stmts))
	for _, st := range bm.Stmts {
		k := key(st)
		cands := unclaimed[k]
		if len(cands) == 0 {
			return false
		}
		pairs = append(pairs, stmtPair{st, cands[0]})
		unclaimed[k] = cands[1:]
	}

	for bv, nv := range vars {
		d.Vars[bv] = nv
	}
	if bm.HasExcVar() {
		d.Vars[bm.ExcVar()] = nm.ExcVar()
	}
	for _, p := range pairs {
		switch bs := p.b.(type) {
		case *lang.Alloc:
			d.Sites[bs.Site] = p.n.(*lang.Alloc).Site
		case *lang.Invoke:
			d.Invokes[bs] = p.n.(*lang.Invoke)
		}
	}
	return true
}

// withoutExc filters the lazily created "$exc" sink out of a Locals
// slice so positional comparison is insensitive to when (or whether)
// analysis forced its creation.
func withoutExc(vars []*lang.Var) []*lang.Var {
	out := make([]*lang.Var, 0, len(vars))
	for _, v := range vars {
		if v.Name == "$exc" {
			continue
		}
		out = append(out, v)
	}
	return out
}
