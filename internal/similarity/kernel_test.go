package similarity

import (
	"math/rand"
	"testing"
)

// TestMaskPathMatchesGeneralPath pins the mask path to the general path
// and to the reference scorers on random strings over small alphabets,
// where runes repeat and Jaro's windows collide: jaroMask's match and
// transposition counts equal jaroScan's, Myers' distance equals the
// reference Levenshtein and the banded DP's answer within every limit, the
// matching bound never claims d > limit when d ≤ limit, and scores equal
// (==) the general path's and Score's. Query lengths cover 1, 63 and 64
// runes; entry lengths cover 1, 64 and 65 (the longest jaroMask takes and
// the first the scan takes back); entries mix in non-ASCII runes, which no
// ASCII query rune matches.
func TestMaskPathMatchesGeneralPath(t *testing.T) {
	ascii, wide := "abcdefghij", []rune("éüñøå")
	rng := rand.New(rand.NewSource(27))
	randString := func(n, sigma int, nonASCII bool) string {
		rs := make([]rune, n)
		for i := range rs {
			if nonASCII && rng.Intn(4) == 0 {
				rs[i] = wide[rng.Intn(len(wide))]
			} else {
				rs[i] = rune(ascii[rng.Intn(sigma)])
			}
		}
		return string(rs)
	}
	pick := func(edges ...int) int {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return 1 + rng.Intn(70)
	}
	var k kernel
	masked, scanned := 0, 0
	for iter := 0; iter < 20000; iter++ {
		sigma := 1 + rng.Intn(10)
		q := randString(min(pick(1, 63, 64), 64), sigma, false)
		e := randString(pick(1, 64, 65), sigma, rng.Intn(3) == 0)
		if q == e {
			continue
		}
		k.setQuery([]rune(q))
		if !k.masked {
			t.Fatalf("ASCII query of %d runes is not masked", len(k.q))
		}
		k.verify(e, 0, 0) // builds the query table and decodes e into k.v
		d := k.myers()
		if want := Levenshtein(q, e); d != want {
			t.Fatalf("q=%q e=%q: Myers distance %d, reference %d", q, e, d, want)
		}
		sm, st := k.jaroScan()
		if len(k.v) <= 64 {
			masked++
			if m, tr := k.jaroMask(); m != sm || tr != st {
				t.Fatalf("q=%q e=%q: jaroMask matched %d with %d transpositions, scan %d with %d", q, e, m, tr, sm, st)
			}
		} else {
			scanned++
		}
		longer := max(len(k.q), len(k.v))
		for limit := 0; limit <= max(longer/2-1, 0); limit++ {
			if longer-sm > limit && d <= limit {
				t.Fatalf("q=%q e=%q: %d matches claim distance > %d, but it is %d", q, e, sm, limit, d)
			}
		}
		for _, limit := range []int{0, d - 1, d, d + 1, 70} {
			if limit < 0 {
				continue
			}
			if got := k.levenshteinWithin(limit); got != min(d, limit+1) {
				t.Fatalf("q=%q e=%q: levenshteinWithin(%d) = %d, exact distance %d", q, e, limit, got, d)
			}
		}
		jac := TrigramJaccard(q, e)
		want := Score(q, e)
		for _, threshold := range []float64{0, DefaultThreshold} {
			got := k.verify(e, jac, threshold)
			k.masked = false
			scan := k.verify(e, jac, threshold)
			k.masked = true
			if got != scan {
				t.Fatalf("q=%q e=%q threshold %v: mask path %v, general path %v", q, e, threshold, got, scan)
			}
			// Past the threshold the kernel returns the reference score; below
			// it, only the verdict has to agree.
			if (want >= threshold || got >= threshold) && got != want {
				t.Fatalf("q=%q e=%q threshold %v: kernel %v, reference Score %v", q, e, threshold, got, want)
			}
		}
		k.clearQuery()
	}
	if masked < 1000 || scanned < 1000 {
		t.Fatalf("%d pairs took jaroMask and %d the scan; want both >= 1000", masked, scanned)
	}
	for c, w := range k.peq {
		if w != 0 {
			t.Fatalf("peq[%q] = %#x after clearQuery", rune(c), w)
		}
	}
}
