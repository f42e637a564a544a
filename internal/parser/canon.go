package parser

import "mahjong/internal/lang"

// MethodText renders one method in the canonical textual form used by
// Print: signature line, declared locals, then one line per statement.
// Two methods with equal MethodText parse/build to structurally
// identical bodies (same locals in the same order, same statements,
// same allocation-site sequence), which is what makes the text a sound
// content-hash unit for incremental diffing (internal/delta).
func MethodText(m *lang.Method) string { return string(AppendMethod(nil, m)) }

// AppendMethod appends MethodText(m) to dst and returns the extended
// buffer, so callers that hash many methods can reuse one buffer.
func AppendMethod(dst []byte, m *lang.Method) []byte {
	p := printer{buf: dst}
	p.method(m)
	return p.buf
}

// StmtText renders one statement in the canonical line form MethodText
// uses. Statements with equal StmtText impose identical points-to
// constraints up to the (name-preserving) renaming of their method's
// variables and allocation sites — the property internal/delta's
// grown-body matching relies on.
func StmtText(st lang.Stmt) string {
	var p printer
	p.stmt(st)
	return string(p.buf)
}

// ClassShape renders the merge-relevant shape of a class: kind, name,
// super, interfaces, declared fields, and declared method signatures —
// everything about the class except method bodies. Programs whose
// classes all share shapes differ at most in method bodies, the
// granularity at which internal/delta can solve incrementally.
func ClassShape(c *lang.Class) string { return string(AppendClassShape(nil, c)) }

// AppendClassShape appends ClassShape(c) to dst and returns the
// extended buffer.
func AppendClassShape(dst []byte, c *lang.Class) []byte {
	p := printer{buf: dst}
	p.shape(c)
	return p.buf
}
