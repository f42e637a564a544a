package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"mahjong"
	"mahjong/internal/cha"
	"mahjong/internal/failure"
	"mahjong/internal/faultinject"
	"mahjong/internal/lang"
	"mahjong/internal/pta"
	"mahjong/internal/trace"
)

// Demand-driven queries: POST /jobs/{id}/query answers a points-to or
// alias question about one job's program without requiring — or
// triggering — a full context-sensitive solve. Answers come from the
// cheapest sufficient source:
//
//   - "full":   the job is done, so the saturated main-analysis result
//     answers exactly;
//   - "cha":    the variable's method is not even CHA-reachable, so its
//     points-to set is exactly empty (CHA over-approximates any
//     points-to-based reachability from the same entry);
//   - "demand": a budget-bounded context-insensitive solve over a
//     private copy of the program, cached per job, answers from partial
//     saturation; "complete" reports whether the solve saturated before
//     the budget.
//
// The private copy matters: the job's own program may be mid-solve on a
// worker, and the solver mutates shared IR (lazily materialized $exc
// locals), so queries never touch it.

// defaultQueryBudget caps the demand solve's propagation work when
// Config.QueryBudget is unset.
const defaultQueryBudget = 200_000

// querySpec is the JSON body of POST /jobs/{id}/query: exactly one of
// Var ("Class.method/arity#name") or Alias (two such names).
type querySpec struct {
	Var   string   `json:"var,omitempty"`
	Alias []string `json:"alias,omitempty"`
}

// queryAnswer is the response body.
type queryAnswer struct {
	Job    string `json:"job"`
	Source string `json:"source"` // full | cha | demand
	// Complete reports whether the answer is exact. A demand solve that
	// hit its work budget stops below the fixpoint: its sets are
	// incomplete and may miss objects.
	Complete bool     `json:"complete"`
	Var      string   `json:"var,omitempty"`
	Objects  []string `json:"objects,omitempty"`
	Types    []string `json:"types,omitempty"`
	Alias    *bool    `json:"alias,omitempty"`
	// Overlap lists the objects witnessing an alias (the intersection of
	// the two points-to sets).
	Overlap []string `json:"overlap,omitempty"`
}

// queryState is a job's cached demand-query machinery: a private parse
// of the program, its CHA call graph, and (lazily) one bounded solve
// shared by all queries against the job.
type queryState struct {
	prog *mahjong.Program
	cg   *cha.Graph

	mu  sync.Mutex
	res *pta.Result
}

// solve runs (once) the bounded context-insensitive solve. Callers hold
// q.mu.
func (q *queryState) solve(ctx context.Context, work int64, tc trace.Ctx) (*pta.Result, error) {
	if q.res != nil {
		return q.res, nil
	}
	res, err := pta.SolveContext(ctx, q.prog, pta.Options{
		Budget: pta.Budget{Work: work},
		Trace:  tc,
	})
	if err != nil {
		return nil, err
	}
	q.res = res
	return res, nil
}

// queryError carries an HTTP status for client-side query mistakes
// (unknown variable, bad spec) so they do not surface as 500s.
type queryError struct {
	code int
	msg  string
}

func (e *queryError) Error() string { return e.msg }

func qerrf(code int, format string, args ...any) error {
	return &queryError{code: code, msg: fmt.Sprintf(format, args...)}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var spec querySpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if (spec.Var == "") == (len(spec.Alias) == 0) {
		httpError(w, http.StatusBadRequest, "set exactly one of var or alias")
		return
	}
	if len(spec.Alias) != 0 && len(spec.Alias) != 2 {
		httpError(w, http.StatusBadRequest, "alias takes exactly two variables, got %d", len(spec.Alias))
		return
	}

	s.metrics.queriesTotal.Add(1)
	// Each query gets its own tracer: queries arrive independently of job
	// attempts, and their spans feed the same stage-duration histograms.
	tr := trace.New()
	ans, err := s.answerQuery(r.Context(), j, spec, tr.Root())
	s.metrics.observeTrace(tr.Snapshot())
	if err != nil {
		s.metrics.queryErrors.Add(1)
		var qe *queryError
		if errors.As(err, &qe) {
			httpError(w, qe.code, "%s", qe.msg)
			return
		}
		s.metrics.noteStageFailure(faultinject.StageQuery)
		httpError(w, http.StatusInternalServerError, "query: %v", err)
		return
	}
	switch ans.Source {
	case "full":
		s.metrics.queriesFull.Add(1)
	case "cha":
		s.metrics.queriesCHA.Add(1)
	case "demand":
		s.metrics.queriesDemand.Add(1)
	}
	writeJSON(w, http.StatusOK, ans)
}

// answerQuery resolves one query through the source ladder (full → cha
// → demand) under the server.query stage guards.
func (s *Server) answerQuery(ctx context.Context, j *job, spec querySpec, tc trace.Ctx) (ans *queryAnswer, err error) {
	sp := tc.Start(faultinject.StageQuery)
	defer func() {
		if ans != nil {
			sp.Add("objects", int64(len(ans.Objects)+len(ans.Overlap)))
		}
		sp.Close(err)
	}()
	defer failure.Recover(faultinject.StageQuery, &err)
	if ferr := faultinject.Fire(faultinject.StageQuery); ferr != nil {
		return nil, fmt.Errorf("demand query: %w", ferr)
	}

	// A completed, scalable job answers exactly from its own result.
	if rep, prog, rerr := j.ready(); rerr == nil && rep.Scalable {
		return assembleAnswer(j.id, "full", true, rep.Result(), prog, spec)
	}

	qs, err := s.queryStateFor(j)
	if err != nil {
		return nil, err
	}
	qs.mu.Lock()
	defer qs.mu.Unlock()

	vars, err := queryVars(qs.prog, spec)
	if err != nil {
		return nil, err
	}
	// CHA shortcut: a variable in a method CHA cannot reach has an
	// exactly empty points-to set — no solving needed, and for an alias
	// question one empty side settles it.
	for _, v := range vars {
		if !qs.cg.Reachable[v.Method] {
			ans := &queryAnswer{Job: j.id, Source: "cha", Complete: true}
			if spec.Var != "" {
				ans.Var = v.String()
			} else {
				no := false
				ans.Alias = &no
			}
			return ans, nil
		}
	}

	res, err := qs.solve(ctx, s.queryBudget(), sp.Ctx())
	if err != nil {
		return nil, err
	}
	return assembleAnswer(j.id, "demand", !res.Aborted, res, qs.prog, spec)
}

// queryStateFor returns (building on first use) the job's private
// demand-query state.
func (s *Server) queryStateFor(j *job) (*queryState, error) {
	j.queryMu.Lock()
	defer j.queryMu.Unlock()
	if j.query != nil {
		return j.query, nil
	}
	var (
		prog *mahjong.Program
		err  error
	)
	if j.spec.IR != "" {
		prog, err = mahjong.ParseProgram("query", j.spec.IR)
	} else {
		prog, err = mahjong.GenerateBenchmark(j.spec.Benchmark)
	}
	if err != nil {
		return nil, err
	}
	j.query = &queryState{prog: prog, cg: cha.CHA(prog)}
	return j.query, nil
}

// queryBudget resolves the demand solve's work cap (0 = default,
// negative = unlimited).
func (s *Server) queryBudget() int64 {
	switch b := s.cfg.QueryBudget; {
	case b == 0:
		return defaultQueryBudget
	case b < 0:
		return 0
	default:
		return b
	}
}

// queryVars resolves the spec's variable names against prog.
func queryVars(prog *mahjong.Program, spec querySpec) ([]*lang.Var, error) {
	names := spec.Alias
	if spec.Var != "" {
		names = []string{spec.Var}
	}
	out := make([]*lang.Var, 0, len(names))
	for _, name := range names {
		v := findVar(prog, name)
		if v == nil {
			return nil, qerrf(http.StatusNotFound, "no variable %q in the program", name)
		}
		out = append(out, v)
	}
	return out, nil
}

// assembleAnswer renders a points-to or alias answer from res.
func assembleAnswer(jobID, source string, complete bool, res *pta.Result, prog *mahjong.Program, spec querySpec) (*queryAnswer, error) {
	vars, err := queryVars(prog, spec)
	if err != nil {
		return nil, err
	}
	ans := &queryAnswer{Job: jobID, Source: source, Complete: complete}
	if spec.Var != "" {
		v := vars[0]
		ans.Var = v.String()
		ans.Objects = []string{}
		for _, o := range res.VarObjs(v) {
			ans.Objects = append(ans.Objects, o.String())
		}
		sort.Strings(ans.Objects)
		for _, t := range res.VarTypes(v) {
			ans.Types = append(ans.Types, t.Name)
		}
		return ans, nil
	}
	in := make(map[*pta.Obj]bool)
	for _, o := range res.VarObjs(vars[0]) {
		in[o] = true
	}
	ans.Overlap = []string{}
	for _, o := range res.VarObjs(vars[1]) {
		if in[o] {
			ans.Overlap = append(ans.Overlap, o.String())
		}
	}
	sort.Strings(ans.Overlap)
	aliased := len(ans.Overlap) > 0
	ans.Alias = &aliased
	return ans, nil
}
