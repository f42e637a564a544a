package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"mahjong"
	"mahjong/internal/clients"
	"mahjong/internal/lang"
	"mahjong/internal/parser"
	"mahjong/internal/pta"
	"mahjong/internal/synth"
)

// subject is one generated input program and its textual IR.
type subject struct {
	name string
	prog *lang.Program
	ir   string
}

// genSubject generates the named synthetic benchmark with its profile
// seed offset by the workload seed (seed 0 reproduces the published
// subjects) and prints it as IR.
func genSubject(name string, seed int64) (subject, error) {
	prof, err := synth.ProfileByName(name)
	if err != nil {
		return subject{}, err
	}
	prof.Seed += seed
	p, err := synth.Generate(prof)
	if err != nil {
		return subject{}, fmt.Errorf("generate %s: %w", name, err)
	}
	return subject{name: name, prog: p, ir: parser.Print(p)}, nil
}

// outcome is everything the output checks compare about one
// operation's result.
type outcome struct {
	MOM             string // momSignature of the abstraction
	Objects, Merged int
	Metrics         clients.Metrics
	CSObjects       int
	Work            int64
}

func (o outcome) String() string {
	return fmt.Sprintf("mom=%.12s objects=%d merged=%d cs_objects=%d work=%d metrics=%+v",
		o.MOM, o.Objects, o.Merged, o.CSObjects, o.Work, o.Metrics)
}

// momSignature hashes the merged (site, representative) pairs of a MOM
// by their stable labels, so abstractions of separately parsed copies
// of one program compare equal.
func momSignature(mom map[*lang.AllocSite]*lang.AllocSite) string {
	pairs := make([]string, 0, len(mom))
	for site, rep := range mom {
		if site != rep {
			pairs = append(pairs, site.Label+"\x00"+rep.Label)
		}
	}
	sort.Strings(pairs)
	h := sha256.New()
	for _, p := range pairs {
		h.Write([]byte(p + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func facadeOutcome(abs *mahjong.Abstraction, rep *mahjong.Report) outcome {
	return outcome{
		MOM:       momSignature(abs.MOM),
		Objects:   abs.Objects,
		Merged:    abs.MergedObjects,
		Metrics:   rep.Metrics,
		CSObjects: rep.CSObjects,
		Work:      rep.Work,
	}
}

// reportError classifies a facade report that completed without error
// but cannot be accepted as a result.
func reportError(rep *mahjong.Report) error {
	if !rep.Scalable {
		return fmt.Errorf("analysis came back unscalable (work %d)", rep.Work)
	}
	return nil
}

// pin is a result recorded by hand in EXPERIMENTS.md for the published
// subjects (workload seed 0); -1 leaves a count unpinned.
type pin struct {
	subject, analysis  string
	edges, poly, casts int
}

var pins = []pin{
	{"checkstyle", "2obj", 3869, 8, 48},
	{"pmd", "3obj", 3584, -1, -1},
}

// checkPin compares m against the pin for (name, analysis), if any. It
// reports whether a pin applied.
func checkPin(seed int64, name, analysis string, m clients.Metrics) (bool, error) {
	if seed != 0 {
		return false, nil
	}
	for _, p := range pins {
		if p.subject != name || p.analysis != analysis {
			continue
		}
		if m.CallGraphEdges != p.edges ||
			(p.poly >= 0 && m.PolyCallSites != p.poly) ||
			(p.casts >= 0 && m.MayFailCasts != p.casts) {
			return true, fmt.Errorf("pin %s M-%s: got edges=%d poly=%d casts=%d, EXPERIMENTS.md records %d/%d/%d",
				name, analysis, m.CallGraphEdges, m.PolyCallSites, m.MayFailCasts, p.edges, p.poly, p.casts)
		}
		return true, nil
	}
	return false, nil
}

// selector maps an analysis name to the solver's context selector, as
// the facade's Config.Analysis does.
func selector(analysis string) (pta.Selector, error) {
	switch analysis {
	case "ci":
		return pta.CI{}, nil
	case "2obj":
		return pta.KObj{K: 2}, nil
	case "3obj":
		return pta.KObj{K: 3}, nil
	case "2type":
		return pta.KType{K: 2}, nil
	}
	return nil, fmt.Errorf("no selector for analysis %q", analysis)
}
