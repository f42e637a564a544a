// Package core implements MAHJONG's heap modeler: Algorithm 1 of the
// paper. Given the field points-to graph of a pre-analysis, it merges
// every pair of type-consistent objects (Definition 2.1) by testing the
// equivalence of their sequential automata (package automata), and emits
// the merged object map (MOM) that a subsequent points-to analysis
// consumes through pta.NewMergedSiteModel.
//
// Two of the §5 optimizations are built in: the disjoint-set forest
// (package unionfind) and shared sequential automata (package
// automata's Universe). Type groups are merged one after another on a
// single goroutine; the paper's parallel type-consistency checks are
// not implemented.
package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"mahjong/internal/automata"
	"mahjong/internal/budget"
	"mahjong/internal/failure"
	"mahjong/internal/faultinject"
	"mahjong/internal/fpg"
	"mahjong/internal/lang"
	"mahjong/internal/pta"
	"mahjong/internal/trace"
	"mahjong/internal/unionfind"
)

// RepPolicy selects the representative object of an equivalence class.
// The choice does not affect soundness; Example 3.2 shows it can affect
// M-ktype precision.
type RepPolicy int

const (
	// RepFirst picks the member with the smallest node ID (the paper's
	// "arbitrarily picked" representative, deterministically).
	RepFirst RepPolicy = iota
	// RepTypeDiverse prefers a member allocated in a class not yet used
	// by representatives of other classes of the same object type,
	// maximizing the type-context diversity available to M-ktype.
	RepTypeDiverse
)

// Options configures the heap modeler.
type Options struct {
	// Policy selects equivalence-class representatives.
	Policy RepPolicy
	// Meter, when non-nil, charges the shared per-job resource budget one
	// merge pair per equivalence test; exhaustion aborts BuildContext with
	// an error wrapping budget.ErrExhausted.
	Meter *budget.Meter

	// Trace, when enabled, records a "core.build" span with one
	// "automata.equiv" child covering the merge loop; both count the
	// equivalence tests run as merge_pairs. The zero Ctx disables
	// tracing at no cost.
	Trace trace.Ctx

	// Reuse, when non-nil, replays the partition of every type group
	// whose reachable sub-FPG fingerprint matches the captured base
	// build, skipping its DFA construction and equivalence tests. The
	// MOM is unaffected — a matching fingerprint implies the same merge
	// decisions — but DFAStates/SumDFAStates then count only the
	// re-merged groups.
	//
	// No production path sets Reuse or CaptureReuse: fingerprinting a
	// build's groups costs more than re-merging them, so incremental
	// builds re-merge like cold ones. Both remain only for the
	// benchmark's edit-loop replica, which still compiles against them.
	Reuse *ReuseState
	// CaptureReuse attaches a ReuseState to the Result for a later
	// build's Options.Reuse.
	CaptureReuse bool
}

// Result is the heap abstraction built by the modeler.
type Result struct {
	// MOM maps every allocation site to the representative site of its
	// equivalence class (identity for singletons).
	MOM map[*lang.AllocSite]*lang.AllocSite
	// Classes lists the equivalence classes, largest first; members are
	// ordered by FPG node ID. Singleton classes are included.
	Classes []Class
	// NumObjects is the number of pre-analysis abstract objects
	// (the allocation-site abstraction's object count).
	NumObjects int
	// NumMerged is the number of abstract objects after merging
	// (the Mahjong abstraction's object count, |H/≡|).
	NumMerged int
	// DFAStates is the number of distinct hash-consed DFA states in the
	// automata of the objects that pass SINGLETYPE-CHECK; SumDFAStates
	// is the sum of those objects' DFA sizes, what the states would
	// number without sharing. DFAStates <= SumDFAStates.
	DFAStates    int
	SumDFAStates int
	// Duration is the wall-clock time of heap modeling (excluding the
	// pre-analysis and FPG construction).
	Duration time.Duration
	// ReusedGroups and RemergedGroups split the type groups between
	// those replayed from Options.Reuse and those merged from scratch
	// (both zero when reuse is off).
	ReusedGroups, RemergedGroups int
	// ReuseState is the captured merge summary (Options.CaptureReuse).
	ReuseState *ReuseState
}

// Class is one equivalence class of type-consistent objects.
type Class struct {
	Rep     *pta.Obj
	Members []*pta.Obj // includes Rep
	Type    *lang.Class
}

// Size returns the number of members.
func (c Class) Size() int { return len(c.Members) }

// Build runs Algorithm 1 on the FPG.
func Build(g *fpg.Graph, opts Options) *Result {
	opts.Meter = nil
	res, err := BuildContext(context.Background(), g, opts) //lint:allow ctxflow Build is the documented context-free compat shim over BuildContext
	if err != nil {
		// Background contexts are never cancelled and unmetered builds
		// cannot exhaust; any error here is a bug (or an injected fault
		// in a test driving Build directly).
		panic(err)
	}
	return res
}

// BuildContext is Build with cancellation and resource budgeting: the
// merge loop checks ctx before each candidate object, and a cancelled
// or timed-out context aborts modeling with an error wrapping
// context.Canceled or context.DeadlineExceeded. A panic anywhere in the
// modeler is recovered into a *failure.InternalError rather than
// tearing down the process.
func BuildContext(ctx context.Context, g *fpg.Graph, opts Options) (res *Result, err error) {
	// Registered before the stage guard so the span closes tagged with
	// the recovered error (see pta.SolveContext for the idiom).
	sp := opts.Trace.Start(faultinject.StageModel)
	defer func() { sp.Close(err) }()
	defer failure.Recover(faultinject.StageModel, &err)
	if err := faultinject.Fire(faultinject.StageModel); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxflow nil-context normalization at the API boundary, not a detached root
	}
	start := time.Now()

	u := automata.NewUniverse(g)

	// Group FPG nodes by type; only groups with ≥2 members can merge.
	groups := make(map[int][]int) // type ID → node IDs
	for id := 1; id < len(g.Objs); id++ {
		t := g.TypeOf[id]
		groups[t] = append(groups[t], id)
	}
	groupList := make([][]int, 0, len(groups))
	for _, nodes := range groups {
		if len(nodes) > 1 {
			groupList = append(groupList, nodes)
		}
	}
	// Deterministic order, largest groups first: it fixes the order in
	// which DFA states are interned, and so their IDs.
	sort.Slice(groupList, func(i, j int) bool {
		if len(groupList[i]) != len(groupList[j]) {
			return len(groupList[i]) > len(groupList[j])
		}
		return groupList[i][0] < groupList[j][0]
	})

	// Merge reuse (see reuse.go): groups whose reachable sub-FPG
	// fingerprint matches the captured base build skip the merge loop —
	// their base partition is replayed into the union-find directly.
	// Capture and matching share one reuser so fingerprints computed for
	// matching are not hashed again at capture time.
	uf := unionfind.New(len(g.Objs))
	var rx *reuser
	if opts.Reuse != nil || opts.CaptureReuse {
		if rx = newReuser(g); !rx.ok {
			rx = nil // no unique structural keys: disable reuse
		}
	}
	fps := make(map[string][sha256.Size]byte)
	mergeList := groupList
	reusedGroups, remergedGroups := 0, 0
	if opts.Reuse != nil && rx != nil {
		mergeList = make([][]int, 0, len(groupList))
		for _, nodes := range groupList {
			tname := typeNameOf(g, nodes[0])
			fp := rx.fingerprint(nodes)
			fps[tname] = fp
			if classes, ok := opts.Reuse.match(tname, fp); ok && rx.replay(uf, classes) {
				reusedGroups++
				continue
			}
			remergedGroups++
			mergeList = append(mergeList, nodes)
		}
	}

	states, sumStates, pairs, err := mergeGroups(ctx, sp.Ctx(), u, uf, mergeList, opts.Meter)
	if err != nil {
		return nil, err
	}

	res = buildResult(g, uf, opts.Policy)
	res.DFAStates = states
	res.SumDFAStates = sumStates
	res.ReusedGroups = reusedGroups
	res.RemergedGroups = remergedGroups
	if opts.CaptureReuse && rx != nil {
		res.ReuseState = captureReuse(rx, groupList, uf, fps)
	}
	res.Duration = time.Since(start)
	sp.Add("objects", int64(res.NumObjects))
	sp.Add("merged_objects", int64(res.NumMerged))
	sp.Add("classes", int64(len(res.Classes)))
	sp.Add("dfa_states", int64(res.DFAStates))
	sp.Add("sum_dfa_states", int64(res.SumDFAStates))
	sp.Add("merge_pairs", pairs)
	sp.Add("reused_groups", int64(res.ReusedGroups))
	sp.Add("remerged_groups", int64(res.RemergedGroups))
	return res, nil
}

// mergeGroups is Algorithm 1's merge loop. Within each type group, an
// object that passes SINGLETYPE-CHECK is compared against the group's
// running list of class representatives and joins the first equivalent
// one, else becomes a representative itself. It returns the number of
// distinct DFA states of the passing objects, the sum of their DFA
// sizes, and the number of equivalence tests run.
//
// Interning happens only in SingleTypeOK, group by group in list order,
// so DFA state IDs do not depend on the equivalence checks.
//
// All checks run under one "automata.equiv" span. A panic, budget
// exhaustion or cancellation closes it tagged with the error; partial
// merges stay sound, but the caller discards them.
func mergeGroups(ctx context.Context, tc trace.Ctx, u *automata.Universe, uf *unionfind.Forest, groups [][]int, meter *budget.Meter) (states, sumStates int, pairs int64, err error) {
	sp := tc.Start(faultinject.StageEquiv)
	defer func() {
		sp.Add("merge_pairs", pairs)
		sp.Close(err)
	}()
	defer failure.Recover(faultinject.StageModel, &err)
	var reps []int
	for _, nodes := range groups {
		reps = reps[:0]
		for _, n := range nodes {
			if err := ctx.Err(); err != nil {
				return 0, 0, pairs, fmt.Errorf("core: heap modeling interrupted: %w", err)
			}
			if !u.SingleTypeOK(n) {
				continue
			}
			root := u.Root(n)
			size, fresh := u.ClaimStates(root)
			states += fresh
			sumStates += size
			merged := false
			for _, r := range reps {
				if err := meter.AddPairs(1); err != nil {
					return 0, 0, pairs, fmt.Errorf("core: %w", err)
				}
				pairs++
				if u.Equivalent(u.Root(r), root) {
					uf.Union(r, n)
					merged = true
					break
				}
			}
			if !merged {
				reps = append(reps, n)
			}
		}
	}
	return states, sumStates, pairs, nil
}

// buildResult turns the union-find partition into classes and the MOM.
func buildResult(g *fpg.Graph, uf *unionfind.Forest, policy RepPolicy) *Result {
	members := make(map[int][]int)
	for id := 1; id < len(g.Objs); id++ {
		r := uf.Find(id)
		members[r] = append(members[r], id)
	}
	roots := make([]int, 0, len(members))
	for r := range members {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		if len(members[roots[i]]) != len(members[roots[j]]) {
			return len(members[roots[i]]) > len(members[roots[j]])
		}
		return roots[i] < roots[j]
	})

	// Representative election. usedCtxClasses tracks, per object type,
	// the allocating classes already claimed — by singleton classes,
	// whose representative is forced, and by previously elected
	// representatives. RepTypeDiverse prefers an unclaimed allocating
	// class so that M-ktype keeps as many type contexts distinct as
	// possible (Example 3.2).
	usedCtxClasses := make(map[int]map[*lang.Class]bool)
	if policy == RepTypeDiverse {
		for _, r := range roots {
			if len(members[r]) != 1 {
				continue
			}
			t := g.TypeOf[r]
			used := usedCtxClasses[t]
			if used == nil {
				used = make(map[*lang.Class]bool)
				usedCtxClasses[t] = used
			}
			used[allocClass(g, members[r][0])] = true
		}
	}

	res := &Result{
		MOM:        make(map[*lang.AllocSite]*lang.AllocSite, g.NumObjects()),
		NumObjects: g.NumObjects(),
	}
	for _, r := range roots {
		ms := members[r]
		sort.Ints(ms)
		rep := ms[0]
		if policy == RepTypeDiverse && len(ms) > 1 {
			t := g.TypeOf[r]
			used := usedCtxClasses[t]
			if used == nil {
				used = make(map[*lang.Class]bool)
				usedCtxClasses[t] = used
			}
			for _, m := range ms {
				if !used[allocClass(g, m)] {
					rep = m
					break
				}
			}
			used[allocClass(g, rep)] = true
		}
		cls := Class{
			Rep:  g.Objs[rep],
			Type: g.Objs[rep].Type,
		}
		for _, m := range ms {
			cls.Members = append(cls.Members, g.Objs[m])
			for _, site := range g.Objs[m].Sites {
				res.MOM[site] = g.Objs[rep].Rep
			}
		}
		res.Classes = append(res.Classes, cls)
	}
	res.NumMerged = len(res.Classes)
	return res
}

// allocClass returns the class containing node's allocation site — the
// element k-type-sensitivity would use as context.
func allocClass(g *fpg.Graph, node int) *lang.Class {
	return g.Objs[node].Rep.Method.Owner
}

// HeapModel returns a pta heap model using this abstraction.
func (r *Result) HeapModel() pta.HeapModel { return pta.NewMergedSiteModel(r.MOM) }

// Reduction returns the fraction of objects removed by merging
// (the Figure 8 statistic: ~62% on the paper's benchmarks).
func (r *Result) Reduction() float64 {
	if r.NumObjects == 0 {
		return 0
	}
	return 1 - float64(r.NumMerged)/float64(r.NumObjects)
}

// SizeHistogram returns, for each equivalence class size, how many
// classes have that size (the Figure 9 scatter), as sorted (size, count)
// pairs.
func (r *Result) SizeHistogram() [][2]int {
	counts := make(map[int]int)
	for _, c := range r.Classes {
		counts[c.Size()]++
	}
	sizes := make([]int, 0, len(counts))
	for s := range counts {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	out := make([][2]int, len(sizes))
	for i, s := range sizes {
		out[i] = [2]int{s, counts[s]}
	}
	return out
}
