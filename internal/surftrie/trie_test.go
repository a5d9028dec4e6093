package surftrie_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"shine/internal/hin"
	"shine/internal/namematch"
	"shine/internal/surftrie"
)

func buildAuthorGraph(t testing.TB, names ...string) (*hin.DBLPSchema, *hin.Graph) {
	t.Helper()
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	for _, n := range names {
		b.MustAddObject(d.Author, n)
	}
	return d, b.Build()
}

func TestBuildErrors(t *testing.T) {
	d, g := buildAuthorGraph(t, "Wei Wang")
	if _, err := surftrie.Build(g, d.Venue); err == nil {
		t.Error("building over an empty type accepted")
	}
	// A population whose every name parses to nothing is an error, like
	// namematch.BuildIndex.
	d2, g2 := buildAuthorGraph(t, "0003")
	if _, err := surftrie.Build(g2, d2.Author); err == nil {
		t.Error("building over unparseable names accepted")
	}
}

func TestCandidatesBasic(t *testing.T) {
	d, g := buildAuthorGraph(t,
		"Wei Wang 0001", "Wei Wang 0002", "Wei Wang 0003",
		"Richard R. Muntz", "Eric Martin 0001", "Lei Wang",
	)
	trie, err := surftrie.Build(g, d.Author)
	if err != nil {
		t.Fatal(err)
	}
	cands := trie.Candidates("Wei Wang")
	if len(cands) != 3 {
		t.Fatalf("Candidates(Wei Wang) = %d entities, want 3", len(cands))
	}
	if !slices.IsSorted(cands) {
		t.Error("candidates not sorted")
	}
	if got := trie.Candidates("Richard Muntz"); len(got) != 1 {
		t.Errorf("Candidates(Richard Muntz) = %d, want 1 via middle-name rule", len(got))
	}
	if got := trie.Candidates("Nobody Here"); len(got) != 0 {
		t.Errorf("Candidates(unknown) = %v", got)
	}
	if got := trie.Candidates(""); got != nil {
		t.Errorf("Candidates(empty) = %v", got)
	}
	// Loose finds the three Wei Wangs via the first initial; Lei Wang's
	// first name conflicts with the initial and stays out.
	if got := trie.LooseCandidates("W. Wang"); len(got) != 3 {
		t.Errorf("LooseCandidates(W. Wang) = %d, want 3", len(got))
	}
}

func TestCheckGraph(t *testing.T) {
	d, g := buildAuthorGraph(t, "Wei Wang", "Lei Wang")
	trie, err := surftrie.Build(g, d.Author)
	if err != nil {
		t.Fatal(err)
	}
	if err := trie.CheckGraph(g, d.Author); err != nil {
		t.Errorf("CheckGraph against own graph: %v", err)
	}
	if err := trie.CheckGraph(g, d.Venue); err == nil {
		t.Error("CheckGraph accepted the wrong entity type")
	}
	// A smaller graph makes the second entry out of range.
	d2, tiny := buildAuthorGraph(t, "Wei Wang")
	if err := trie.CheckGraph(tiny, d2.Author); err == nil {
		t.Error("CheckGraph accepted a graph missing an indexed entity")
	}
}

// ------------------------------------------------- randomized oracle

// namePool are the building blocks of the generated corpus: plain
// ASCII, diacritics, hyphens, apostrophes, and tokens hostile to the
// parser (pure periods, digits).
var (
	firstPool = []string{
		"wei", "lei", "jian", "wen", "rakesh", "michael", "richard",
		"maría", "josé", "élodie", "françois", "björn", "søren", "zoé",
		"anne-marie", "w", "j", "...",
	}
	middlePool = []string{
		"", "", "", "r.", "j.", "jeffrey", "van der", "é.", "k",
	}
	lastPool = []string{
		"wang", "zhang", "li", "muntz", "martin", "jordan", "kumar",
		"garcía", "lópez", "garcía-lópez", "o'brien", "müller", "žižek",
		"nguyễn", "smith",
	}
)

// genName draws one surface form: name parts from the pools rendered
// in one of the accepted conventions, sometimes with a DBLP
// disambiguation suffix.
func genName(rng *rand.Rand) string {
	first := firstPool[rng.Intn(len(firstPool))]
	middle := middlePool[rng.Intn(len(middlePool))]
	last := lastPool[rng.Intn(len(lastPool))]
	full := first
	if middle != "" {
		full += " " + middle
	}
	full += " " + last
	switch rng.Intn(6) {
	case 0: // citation order
		full = last + ", " + first
		if middle != "" {
			full += " " + middle
		}
	case 1: // disambiguation suffix
		full += fmt.Sprintf(" %04d", rng.Intn(20))
	case 2: // single token
		full = last
	}
	return full
}

// perturb applies n random byte edits, producing the noisy-OCR
// mentions the fuzzy mode exists for. Edits are byte-level on purpose:
// they can corrupt a multi-byte rune, and the trie must still answer
// without panicking.
func perturb(rng *rand.Rand, s string, n int) string {
	b := []byte(s)
	for i := 0; i < n && len(b) > 0; i++ {
		pos := rng.Intn(len(b))
		switch rng.Intn(3) {
		case 0: // substitute
			b[pos] = byte('a' + rng.Intn(26))
		case 1: // delete
			b = append(b[:pos], b[pos+1:]...)
		case 2: // insert
			b = append(b[:pos], append([]byte{byte('a' + rng.Intn(26))}, b[pos:]...)...)
		}
	}
	return string(b)
}

// genMention draws a lookup: a corpus name verbatim, an initialised or
// citation-style variant, a perturbed form, or an unrelated string.
func genMention(rng *rand.Rand, names []string) string {
	base := names[rng.Intn(len(names))]
	switch rng.Intn(8) {
	case 0:
		return base
	case 1: // initialise the first token
		n := namematch.Parse(base)
		if n.First != "" {
			return string([]rune(n.First)[:1]) + ". " + n.Last
		}
		return base
	case 2: // citation order
		n := namematch.Parse(base)
		if n.First != "" {
			return n.Last + ", " + n.First
		}
		return base
	case 3:
		return base + fmt.Sprintf(" %04d", rng.Intn(20))
	case 4, 5:
		return perturb(rng, base, 1+rng.Intn(2))
	case 6:
		return genName(rng)
	default:
		return strings.ToUpper(base)
	}
}

// TestOracleEquivalence is the harness's central property: on a
// randomized corpus, the trie's exact and loose lookups are
// element-for-element identical to both the namematch.Index reference
// implementation and a brute-force Matches/MatchesLoose scan of every
// entity, and the fuzzy lookup is a superset of the exact one.
// Mentions are checked from several goroutines so `go test -race`
// doubles as the concurrent-lookup safety proof.
func TestOracleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := make([]string, 1500)
	for i := range names {
		names[i] = genName(rng)
	}
	d, g := buildAuthorGraph(t, names...)
	idx, err := namematch.BuildIndex(g, d.Author)
	if err != nil {
		t.Fatal(err)
	}
	trie, err := surftrie.Build(g, d.Author)
	if err != nil {
		t.Fatal(err)
	}
	entities := g.ObjectsOfType(d.Author)
	parsed := make([]namematch.Name, len(entities))
	for i, e := range entities {
		parsed[i] = namematch.Parse(g.Name(e))
	}
	bruteExact := func(mention string) []hin.ObjectID {
		n := namematch.Parse(mention)
		if n.IsEmpty() {
			return nil
		}
		var out []hin.ObjectID
		for i, e := range entities {
			if !parsed[i].IsEmpty() && n.Matches(parsed[i]) {
				out = append(out, e)
			}
		}
		return out // entity iteration is ascending and duplicate-free
	}
	bruteLoose := func(mention string) []hin.ObjectID {
		n := namematch.Parse(mention)
		if n.IsEmpty() {
			return nil
		}
		var out []hin.ObjectID
		for i, e := range entities {
			if !parsed[i].IsEmpty() && n.MatchesLoose(parsed[i]) {
				out = append(out, e)
			}
		}
		return out
	}

	mentions := make([]string, 3000)
	for i := range mentions {
		mentions[i] = genMention(rng, names)
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(mentions); i += workers {
				m := mentions[i]
				exact := trie.Candidates(m)
				if want := idx.Candidates(m); !slices.Equal(exact, want) {
					t.Errorf("Candidates(%q): trie %v, index %v", m, exact, want)
				}
				if want := bruteExact(m); !slices.Equal(exact, sortedIDs(want)) {
					t.Errorf("Candidates(%q): trie %v, brute scan %v", m, exact, want)
				}
				loose := trie.LooseCandidates(m)
				if want := idx.LooseCandidates(m); !slices.Equal(loose, want) {
					t.Errorf("LooseCandidates(%q): trie %v, index %v", m, loose, want)
				}
				if want := bruteLoose(m); !slices.Equal(loose, sortedIDs(want)) {
					t.Errorf("LooseCandidates(%q): trie %v, brute scan %v", m, loose, want)
				}
				// Fuzzy must contain exact at every distance, and grow
				// monotonically with the distance budget.
				prev := trie.FuzzyCandidates(m, 0)
				if !containsAll(prev, exact) {
					t.Errorf("FuzzyCandidates(%q, 0) misses exact candidates", m)
				}
				for dist := 1; dist <= surftrie.MaxDistance; dist++ {
					cur := trie.FuzzyCandidates(m, dist)
					if !containsAll(cur, prev) {
						t.Errorf("FuzzyCandidates(%q, %d) lost results present at %d", m, dist, dist-1)
					}
					prev = cur
				}
			}
		}()
	}
	wg.Wait()
}

func sortedIDs(ids []hin.ObjectID) []hin.ObjectID {
	out := slices.Clone(ids)
	slices.Sort(out)
	return slices.Compact(out)
}

// containsAll reports whether sorted superset covers every element of
// sorted subset.
func containsAll(superset, subset []hin.ObjectID) bool {
	i := 0
	for _, want := range subset {
		for i < len(superset) && superset[i] < want {
			i++
		}
		if i == len(superset) || superset[i] != want {
			return false
		}
	}
	return true
}

// FuzzTrieLookup holds every lookup mode against the oracle on
// arbitrary mention bytes: exact and loose must equal the reference
// index, fuzzy must be a sorted superset of exact, and nothing may
// panic — including on invalid UTF-8.
func FuzzTrieLookup(f *testing.F) {
	d, g := buildAuthorGraph(f,
		"Wei Wang 0001", "Wei Wang 0002", "Richard R. Muntz",
		"José García-López", "Mia Zoé", "Mia Zoè", "Sø O'Brien",
		"Michael Jeffrey Jordan", "W. Wang", "Lei Wang",
	)
	idx, err := namematch.BuildIndex(g, d.Author)
	if err != nil {
		f.Fatal(err)
	}
	trie, err := surftrie.Build(g, d.Author)
	if err != nil {
		f.Fatal(err)
	}
	f.Add("Wei Wang")
	f.Add("wang, wei 0002")
	f.Add("W. Wang")
	f.Add("Jose Garcia Lopez")
	f.Add("Mia Zoé")
	f.Add("Wei Wing")
	f.Add("\xc3")
	f.Add("a\x00b")
	f.Add("")
	f.Fuzz(func(t *testing.T, mention string) {
		exact := trie.Candidates(mention)
		if want := idx.Candidates(mention); !slices.Equal(exact, want) {
			t.Fatalf("Candidates(%q): trie %v, index %v", mention, exact, want)
		}
		loose := trie.LooseCandidates(mention)
		if want := idx.LooseCandidates(mention); !slices.Equal(loose, want) {
			t.Fatalf("LooseCandidates(%q): trie %v, index %v", mention, loose, want)
		}
		for dist := 0; dist <= surftrie.MaxDistance; dist++ {
			fuzzy := trie.FuzzyCandidates(mention, dist)
			if !slices.IsSorted(fuzzy) {
				t.Fatalf("FuzzyCandidates(%q, %d) not sorted: %v", mention, dist, fuzzy)
			}
			if !containsAll(fuzzy, exact) {
				t.Fatalf("FuzzyCandidates(%q, %d) misses exact candidates", mention, dist)
			}
		}
	})
}
