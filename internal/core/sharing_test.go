package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mahjong/internal/automata"
	"mahjong/internal/fpg"
)

// checkSharedMatchesFresh is the oracle for the §5 shared sequential
// automata: for every same-type pair of objects that pass
// SINGLETYPE-CHECK, the verdict in one shared universe must equal the
// verdict of Equivalent in a fresh universe holding only that pair's
// two DFAs. Build's classes stand between the two.
//
//   - Every pair's shared verdict must equal "same Build class".
//   - Fresh universes check a spanning set of pairs: each member against
//     its class's first member (must be equivalent), and the first
//     members of a type's classes against each other (must not be).
//     Fresh equivalence is an equivalence relation, so these pairs fix
//     the fresh verdict of every other pair to "same Build class" too.
//
// This keeps the fresh-universe checks linear in the objects; checking
// every pair on checkstyle would build 2.2 million fresh universes.
func checkSharedMatchesFresh(g *fpg.Graph) error {
	res := Build(g, Options{})
	if res.DFAStates > res.SumDFAStates {
		return fmt.Errorf("%d shared DFA states exceed the %d of unshared automata", res.DFAStates, res.SumDFAStates)
	}
	classOf := make([]int, len(g.Objs))
	for i, c := range res.Classes {
		for _, m := range c.Members {
			classOf[g.Node(m)] = i
		}
	}
	fresh := func(a, b int) bool {
		u := automata.NewUniverse(g)
		return u.Equivalent(u.DFA(a), u.DFA(b))
	}
	shared := automata.NewUniverse(g)
	byType := make(map[int][]int)
	for id := 1; id < len(g.Objs); id++ {
		if shared.SingleTypeOK(id) {
			byType[g.TypeOf[id]] = append(byType[g.TypeOf[id]], id)
		} else if n := res.Classes[classOf[id]].Size(); n != 1 {
			return fmt.Errorf("object %d fails SINGLETYPE-CHECK but sits in a class of %d", id, n)
		}
	}
	for _, nodes := range byType {
		first := make(map[int]int) // class → its first member in this group
		var reps []int
		for i, a := range nodes {
			for _, b := range nodes[i+1:] {
				same := classOf[a] == classOf[b]
				if shared.Equivalent(shared.Root(a), shared.Root(b)) != same {
					return fmt.Errorf("objects %d, %d: shared verdict %v, Build classes say %v", a, b, !same, same)
				}
			}
			if r, ok := first[classOf[a]]; ok {
				if !fresh(r, a) {
					return fmt.Errorf("objects %d, %d share a class but a fresh universe finds them inequivalent", r, a)
				}
				continue
			}
			first[classOf[a]] = a
			reps = append(reps, a)
		}
		for i, a := range reps {
			for _, b := range reps[i+1:] {
				if fresh(a, b) {
					return fmt.Errorf("objects %d, %d sit in different classes but a fresh universe finds them equivalent", a, b)
				}
			}
		}
	}
	return nil
}

func TestSharedAutomataMatchFreshUniverse(t *testing.T) {
	for _, name := range []string{"luindex", "checkstyle"} {
		t.Run(name, func(t *testing.T) {
			if err := checkSharedMatchesFresh(reuseFPG(t, synthProgram(t, name))); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("figure1", func(t *testing.T) {
		_, g, _ := figure1FPG(t)
		if err := checkSharedMatchesFresh(g); err != nil {
			t.Fatal(err)
		}
	})
	for _, withNull := range []bool{false, true} {
		t.Run(fmt.Sprintf("random/null=%v", withNull), func(t *testing.T) {
			for seed := int64(0); seed < 200; seed++ {
				rng := rand.New(rand.NewSource(seed))
				b := fpg.NewBuilder()
				n := 2 + rng.Intn(14)
				nodes := make([]int, n)
				for i := range nodes {
					nodes[i] = b.AddObj(string(rune('A' + rng.Intn(3))))
				}
				for i, m := 0, rng.Intn(3*n); i < m; i++ {
					to := nodes[rng.Intn(n)]
					if withNull && rng.Intn(4) == 0 {
						to = fpg.NullNode
					}
					b.AddEdge(nodes[rng.Intn(n)], string(rune('f'+rng.Intn(3))), to)
				}
				if err := checkSharedMatchesFresh(b.Graph()); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}
