package flow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"mahjong/internal/lint/flow"
)

// check parses and type-checks one dependency-free source file and
// returns the named function plus the shared type info.
func check(t *testing.T, src, fn string) (*ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "flowtest.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{}
	if _, err := conf.Check("flowtest", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return fd, info
		}
	}
	t.Fatalf("no function %q", fn)
	return nil, nil
}

// findCall returns the statement node whose call target is named name.
func findCall(t *testing.T, g *flow.Graph, info *types.Info, name string) ast.Node {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			found := false
			ast.Inspect(n, func(c ast.Node) bool {
				if call, ok := c.(*ast.CallExpr); ok {
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
				return !found
			})
			if found {
				return n
			}
		}
	}
	t.Fatalf("no call to %q placed in the graph", name)
	return nil
}

const branchSrc = `package flowtest

func release(x int) {}
func use(x int)     {}

// moveThenBranch mirrors the solver's store-then-return shape: the
// moved path returns before the trailing release.
func moveThenBranch(cond bool, x int) {
	if cond {
		release(x)
		return
	}
	use(x)
}
`

func TestWalkRespectsBranches(t *testing.T) {
	fd, info := check(t, branchSrc, "moveThenBranch")
	g := flow.New(fd.Body)
	rel := findCall(t, g, info, "release")

	// From the release, the only reachable statement is the return —
	// use(x) sits on the other branch.
	var seen []string
	w := &flow.Walk{G: g}
	exit := w.From(rel, func(n ast.Node) bool {
		if _, ok := n.(*ast.ReturnStmt); ok {
			seen = append(seen, "return")
		}
		var obj types.Object
		for id, o := range info.Uses {
			if id.Name == "x" {
				obj = o
				break
			}
		}
		if obj != nil && flow.UsesObj(info, n, obj) {
			seen = append(seen, "use-of-x")
		}
		return true
	})
	if !exit {
		t.Fatalf("release path must reach exit")
	}
	for _, s := range seen {
		if s == "use-of-x" {
			t.Fatalf("walk from release leaked onto the other branch: %v", seen)
		}
	}
}

const loopSrc = `package flowtest

func grab() int    { return 0 }
func send(x int)   {}
func after(x int)  {}

func loopMove(work []int) {
	for range work {
		x := grab()
		send(x)
	}
	var y int
	after(y)
}
`

func TestWalkKillsOnRedefinition(t *testing.T) {
	fd, info := check(t, loopSrc, "loopMove")
	g := flow.New(fd.Body)
	send := findCall(t, g, info, "send")

	var xObj types.Object
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if asg, ok := n.(*ast.AssignStmt); ok && asg.Tok == token.DEFINE {
			if id, ok := asg.Lhs[0].(*ast.Ident); ok && id.Name == "x" {
				xObj = info.Defs[id]
			}
		}
		return true
	})
	if xObj == nil {
		t.Fatal("no def of x")
	}

	// Walking from the send with redefinitions of x as kills: the loop
	// back edge re-defines x, so no reachable node may use it.
	w := &flow.Walk{G: g, Kill: func(n ast.Node) bool { return flow.DefinesObj(info, n, xObj) }}
	usedAfter := false
	reached := w.From(send, func(n ast.Node) bool {
		if flow.UsesObj(info, n, xObj) {
			usedAfter = true
		}
		return true
	})
	if usedAfter {
		t.Fatal("x used after send despite the loop redefinition kill")
	}
	if !reached {
		t.Fatal("exit must stay reachable through the loop-exit edge")
	}
}

const okSrc = `package flowtest

func acquire() (int, bool) { return 0, true }
func free(x int)           {}

func guarded() {
	for {
		x, ok := acquire()
		if !ok {
			return
		}
		free(x)
	}
}
`

func TestEdgeProvesFalsePrunesFailedAcquire(t *testing.T) {
	fd, info := check(t, okSrc, "guarded")
	g := flow.New(fd.Body)
	acq := findCall(t, g, info, "acquire")

	var okObj types.Object
	for id, o := range info.Defs {
		if id.Name == "ok" {
			okObj = o
		}
	}
	if okObj == nil {
		t.Fatal("no def of ok")
	}

	// Without pruning, the !ok return reaches exit release-free; with
	// EdgeProvesFalse pruning, every surviving path frees x first.
	killOnFree := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "free" {
					found = true
				}
			}
			return !found
		})
		return found
	}
	unpruned := &flow.Walk{G: g, Kill: killOnFree}
	if got := unpruned.From(acq, nil); !got {
		t.Fatal("without pruning the !ok path must reach exit")
	}
	pruned := &flow.Walk{
		G:     g,
		Kill:  killOnFree,
		Prune: func(e flow.Edge) bool { return flow.EdgeProvesFalse(info, e, okObj) },
	}
	if got := pruned.From(acq, nil); got {
		t.Fatal("pruning the proven-false ok edge must cut the leak path")
	}
}
