package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// reachable returns the nodes reachable from n over one or more edges, by
// breadth-first search, sorted.
func reachable(edges map[ID][]ID, n ID) []ID {
	seen := map[ID]bool{}
	queue := slices.Clone(edges[n])
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if !seen[v] {
			seen[v] = true
			queue = append(queue, edges[v]...)
		}
	}
	var out []ID
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TestClosuresExactOnCycles: on random hierarchies with cycles and
// self-loops, every class and property closure equals per-node reachability,
// SubClasses and SuperClasses are inverse relations, and rebuilding the
// same store (a new map order each time) gives the same closures.
func TestClosuresExactOnCycles(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 4 + rng.Intn(10)
		var edges [][2]int
		for i := 0; i < nodes+rng.Intn(2*nodes); i++ {
			edges = append(edges, [2]int{rng.Intn(nodes), rng.Intn(nodes)})
		}
		var first []string
		for build := 0; build < 5; build++ {
			s := New()
			ids := make([]ID, nodes)
			for i := range ids {
				ids[i] = s.Res(fmt.Sprintf("n%d", i))
			}
			up, down := map[ID][]ID{}, map[ID][]ID{}
			for _, k := range rng.Perm(len(edges)) {
				a, b := ids[edges[k][0]], ids[edges[k][1]]
				s.Add(a, s.SubClassOfID, b)
				s.Add(a, s.SubPropertyOfID, b)
				up[a] = append(up[a], b)
				down[b] = append(down[b], a)
			}
			var view []string
			for _, n := range ids {
				sup, sub := s.SuperClasses(n), s.SubClasses(n)
				if want := reachable(up, n); !slices.Equal(sup, want) {
					t.Fatalf("seed %d: SuperClasses(%d) = %v, want %v", seed, n, sup, want)
				}
				if want := reachable(down, n); !slices.Equal(sub, want) {
					t.Fatalf("seed %d: SubClasses(%d) = %v, want %v", seed, n, sub, want)
				}
				if !slices.Equal(s.SuperProperties(n), sup) || !slices.Equal(s.SubProperties(n), sub) {
					t.Fatalf("seed %d: property closures of %d differ from the class closures over the same edges", seed, n)
				}
				for _, m := range ids {
					if slices.Contains(sup, m) != slices.Contains(s.SubClasses(m), n) {
						t.Fatalf("seed %d: %d ⊑ %d in SuperClasses but not in SubClasses", seed, n, m)
					}
				}
				view = append(view, fmt.Sprint(sup, sub))
			}
			if build == 0 {
				first = view
			} else if !reflect.DeepEqual(view, first) {
				t.Fatalf("seed %d: rebuild %d has other closures than the first build", seed, build)
			}
		}
	}
}
