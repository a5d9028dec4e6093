package namematch

import (
	"reflect"
	"testing"

	"shine/internal/hin"
)

func TestParse(t *testing.T) {
	cases := map[string]Name{
		"Wei Wang":               {First: "wei", Last: "wang"},
		"Richard R. Muntz":       {First: "richard", Middle: "r", Last: "muntz"},
		"Michael Jeffrey Jordan": {First: "michael", Middle: "jeffrey", Last: "jordan"},
		"Wei Wang 0010":          {First: "wei", Last: "wang"},
		"Plato":                  {Last: "plato"},
		"":                       {},
		"  ":                     {},
		"Jan Van Der Berg":       {First: "jan", Middle: "van der", Last: "berg"},
	}
	for in, want := range cases {
		if got := Parse(in); !reflect.DeepEqual(got, want) {
			t.Errorf("Parse(%q) = %+v, want %+v", in, got, want)
		}
	}
}

func TestMatchesExact(t *testing.T) {
	a := Parse("Wei Wang")
	b := Parse("Wei Wang 0003")
	if !a.Matches(b) {
		t.Error("disambiguated form does not match its surface name")
	}
	if !a.Matches(a) {
		t.Error("name does not match itself")
	}
}

func TestMatchesMissingMiddleName(t *testing.T) {
	// Paper example: Richard Muntz and Richard R. Muntz.
	a := Parse("Richard Muntz")
	b := Parse("Richard R. Muntz")
	if !a.Matches(b) || !b.Matches(a) {
		t.Error("missing-middle-name rule failed")
	}
}

func TestMatchesMiddleInitial(t *testing.T) {
	// Paper example: Michael J. Jordan and Michael Jeffrey Jordan.
	a := Parse("Michael J. Jordan")
	b := Parse("Michael Jeffrey Jordan")
	if !a.Matches(b) || !b.Matches(a) {
		t.Error("middle-initial rule failed")
	}
}

func TestMatchesRejections(t *testing.T) {
	cases := [][2]string{
		{"Wei Wang", "Wei Zhang"},                          // different last name
		{"Wei Wang", "Lei Wang"},                           // different first name
		{"Michael J. Jordan", "Michael K. Jordan"},         // conflicting initials
		{"Michael Jeffrey Jordan", "Michael James Jordan"}, // conflicting middles
		{"Jan Van Der Berg", "Jan V. Berg"},                // middle token count differs
	}
	for _, c := range cases {
		if Parse(c[0]).Matches(Parse(c[1])) {
			t.Errorf("%q matches %q, should not", c[0], c[1])
		}
	}
}

func TestMatchesMultiTokenInitials(t *testing.T) {
	a := Parse("Jan V. D. Berg")
	b := Parse("Jan Van Der Berg")
	if !a.Matches(b) || !b.Matches(a) {
		t.Error("multi-token middle initials failed")
	}
}

// TestMatchesUnicodeInitial is the regression test for the
// byte-vs-rune bug in initialOf: a single-rune initial like "É." is
// two bytes long, and the old length-based check rejected it.
func TestMatchesUnicodeInitial(t *testing.T) {
	a := Parse("Élodie É. Durand")
	b := Parse("Élodie Éliane Durand")
	if !a.Matches(b) || !b.Matches(a) {
		t.Error("non-ASCII middle initial rejected")
	}
	if !Parse("É. Durand").MatchesLoose(Parse("Élodie Durand")) {
		t.Error("non-ASCII first initial rejected in loose mode")
	}
	// A wrong initial must still be rejected, and a multi-rune token is
	// never an initial.
	if Parse("Élodie Ó. Durand").Matches(Parse("Élodie Éliane Durand")) {
		t.Error("conflicting non-ASCII initials matched")
	}
	if Parse("Él. Durand").MatchesLoose(Parse("Élodie Durand")) {
		t.Error("two-rune token treated as an initial")
	}
}

func TestKeyBlocksOnFirstAndLast(t *testing.T) {
	if Parse("Wei Wang").Key() != Parse("Wei X. Wang").Key() {
		t.Error("middle name changed the blocking key")
	}
	if Parse("Wei Wang").Key() == Parse("Wei Zhang").Key() {
		t.Error("different last names share a key")
	}
}

func buildAuthorGraph(t testing.TB, names ...string) (*hin.DBLPSchema, *hin.Graph) {
	t.Helper()
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	for _, n := range names {
		b.MustAddObject(d.Author, n)
	}
	return d, b.Build()
}

func TestIndexCandidates(t *testing.T) {
	d, g := buildAuthorGraph(t,
		"Wei Wang 0001", "Wei Wang 0002", "Wei Wang 0003",
		"Richard R. Muntz", "Eric Martin 0001", "Lei Wang",
	)
	idx, err := BuildIndex(g, d.Author)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	cands := idx.Candidates("Wei Wang")
	if len(cands) != 3 {
		t.Fatalf("Candidates(Wei Wang) = %d entities, want 3", len(cands))
	}
	// Results must be sorted by ID.
	for i := 1; i < len(cands); i++ {
		if cands[i] <= cands[i-1] {
			t.Error("candidates not sorted")
		}
	}
	if got := idx.Candidates("Richard Muntz"); len(got) != 1 {
		t.Errorf("Candidates(Richard Muntz) = %d, want 1 via middle-name rule", len(got))
	}
	if got := idx.Candidates("Nobody Here"); len(got) != 0 {
		t.Errorf("Candidates(unknown) = %v", got)
	}
	if got := idx.Candidates(""); got != nil {
		t.Errorf("Candidates(empty) = %v", got)
	}
}

func TestBuildIndexErrors(t *testing.T) {
	d, g := buildAuthorGraph(t, "Wei Wang")
	if _, err := BuildIndex(g, d.Venue); err == nil {
		t.Error("indexing empty type accepted")
	}
}

func TestParseCommaForm(t *testing.T) {
	cases := map[string]Name{
		"Wang, Wei":         {First: "wei", Last: "wang"},
		"Muntz, Richard R.": {First: "richard", Middle: "r", Last: "muntz"},
		"Wang, Wei 0003":    {First: "wei", Last: "wang"},
		"Wang,":             {Last: "wang"},
	}
	for in, want := range cases {
		if got := Parse(in); !reflect.DeepEqual(got, want) {
			t.Errorf("Parse(%q) = %+v, want %+v", in, got, want)
		}
	}
	// Comma and plain forms of the same name must match.
	if !Parse("Wang, Wei").Matches(Parse("Wei Wang")) {
		t.Error("comma form does not match plain form")
	}
}

func TestMatchesLoose(t *testing.T) {
	pairs := [][2]string{
		{"W. Wang", "Wei Wang"},
		{"W. Wang", "Wei Wang 0003"},
		{"Wei Wang", "W. Wang"},
		{"R. Muntz", "Richard R. Muntz"},
		{"Richard Muntz", "Richard R. Muntz"}, // strict rule still applies
	}
	for _, p := range pairs {
		if !Parse(p[0]).MatchesLoose(Parse(p[1])) {
			t.Errorf("%q !~loose %q", p[0], p[1])
		}
	}
	rejections := [][2]string{
		{"W. Wang", "Lei Wang"},       // initial conflicts
		{"W. Wang", "Wei Zhang"},      // last name differs
		{"W. K. Wang", "Wei J. Wang"}, // middle initial conflicts
	}
	for _, p := range rejections {
		if Parse(p[0]).MatchesLoose(Parse(p[1])) {
			t.Errorf("%q ~loose %q, should not", p[0], p[1])
		}
	}
}

func TestLooseCandidates(t *testing.T) {
	d, g := buildAuthorGraph(t,
		"Wei Wang 0001", "Wei Wang 0002", "Wendy Wang", "Lei Wang", "Wei Zhang",
	)
	idx, err := BuildIndex(g, d.Author)
	if err != nil {
		t.Fatal(err)
	}
	// Strict: only the exact Wei Wangs.
	if got := idx.Candidates("W. Wang"); len(got) != 0 {
		t.Errorf("strict Candidates(W. Wang) = %v, want none", got)
	}
	// Loose: both Wei Wangs and Wendy Wang, but not Lei Wang or Wei Zhang.
	got := idx.LooseCandidates("W. Wang")
	if len(got) != 3 {
		t.Fatalf("LooseCandidates(W. Wang) = %d entities, want 3", len(got))
	}
	// Loose lookup of a full name still includes exact matches.
	if got := idx.LooseCandidates("Wei Wang"); len(got) != 2 {
		t.Errorf("LooseCandidates(Wei Wang) = %d, want 2", len(got))
	}
	if got := idx.LooseCandidates(""); got != nil {
		t.Errorf("LooseCandidates(empty) = %v", got)
	}
}
