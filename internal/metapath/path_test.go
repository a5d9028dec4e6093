package metapath

import (
	"strings"
	"testing"

	"shine/internal/hin"
)

// endType returns the destination type of a non-empty path.
func endType(s *hin.Schema, p Path) hin.TypeID {
	rels := p.Relations()
	return s.Relation(rels[len(rels)-1]).To
}

func TestParseLength2(t *testing.T) {
	d := hin.NewDBLPSchema()
	p, err := Parse(d.Schema, "A-P-V")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
	rels := p.Relations()
	if rels[0] != d.Write || rels[1] != d.PublishedAt {
		t.Errorf("relations = %v, want [write publishedAt]", rels)
	}
	if p.String() != "A-P-V" {
		t.Errorf("String = %q, want A-P-V", p.String())
	}
	if p.StartType(d.Schema) != d.Author || endType(d.Schema, p) != d.Venue {
		t.Error("start/end types wrong")
	}
}

func TestParseLength4(t *testing.T) {
	d := hin.NewDBLPSchema()
	p := MustParse(d.Schema, "A-P-A-P-V")
	if p.Len() != 4 {
		t.Errorf("Len = %d, want 4", p.Len())
	}
	if endType(d.Schema, p) != d.Venue {
		t.Error("end type not venue")
	}
}

func TestParseErrors(t *testing.T) {
	d := hin.NewDBLPSchema()
	cases := []struct {
		notation string
		wantErr  string
	}{
		{"A", "fewer than two"},
		{"A-X", "unknown type"},
		{"A-V", "no relation"},
		{"", "fewer than two"},
	}
	for _, c := range cases {
		_, err := Parse(d.Schema, c.notation)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.notation, err, c.wantErr)
		}
	}
}

func TestParseAmbiguousTypePair(t *testing.T) {
	s := hin.NewSchema()
	a := s.MustAddType("author", "A")
	p := s.MustAddType("paper", "P")
	s.MustAddRelation("write", "writtenBy", a, p)
	s.MustAddRelation("review", "reviewedBy", a, p)
	if _, err := Parse(s, "A-P"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous notation error = %v", err)
	}
	// Explicit relation construction still works.
	rel, _ := s.RelationByName("review")
	path, err := New(s, rel)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if path.Len() != 1 {
		t.Errorf("Len = %d", path.Len())
	}
}

func TestNewRejectsNonComposingRelations(t *testing.T) {
	d := hin.NewDBLPSchema()
	// write: A->P, then publish: V->P does not compose.
	if _, err := New(d.Schema, d.Write, d.Publish); err == nil {
		t.Error("non-composing relations accepted")
	}
}

func TestEmptyPath(t *testing.T) {
	d := hin.NewDBLPSchema()
	p, err := New(d.Schema)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !p.IsEmpty() || p.Len() != 0 {
		t.Error("empty path not empty")
	}
	if p.StartType(d.Schema) != hin.NoType {
		t.Error("empty path has a start type")
	}
	if p.String() != "∅" {
		t.Errorf("String = %q", p.String())
	}
}

func TestKeyAndEqual(t *testing.T) {
	d := hin.NewDBLPSchema()
	apv := MustParse(d.Schema, "A-P-V")
	apv2 := MustParse(d.Schema, "A-P-V")
	apt := MustParse(d.Schema, "A-P-T")
	if apv.Key() != apv2.Key() {
		t.Error("identical paths have different keys")
	}
	if apv.Key() == apt.Key() {
		t.Error("different paths share a key")
	}
	// Same-length paths through the same middle type must not collide.
	apa := MustParse(d.Schema, "A-P-A")
	if apv.Key() == apa.Key() {
		t.Error("A-P-V and A-P-A share a key")
	}
}

func TestEnumerateCounts(t *testing.T) {
	d := hin.NewDBLPSchema()
	// From author: length-1 is only A-P (1 relation from author).
	l1, err := Enumerate(d.Schema, d.Author, 1)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(l1) != 1 {
		t.Fatalf("length-1 paths from A = %d, want 1", len(l1))
	}
	// Length ≤ 2: A-P plus A-P-{A,V,T,Y} = 5.
	l2, err := Enumerate(d.Schema, d.Author, 2)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(l2) != 5 {
		t.Fatalf("length≤2 paths from A = %d, want 5", len(l2))
	}
	// BFS ordering: shorter paths come first.
	for i := 1; i < len(l2); i++ {
		if l2[i].Len() < l2[i-1].Len() {
			t.Fatal("enumeration not in BFS order")
		}
	}
}

func TestEnumerateLength4CoversTable3(t *testing.T) {
	d := hin.NewDBLPSchema()
	all, err := Enumerate(d.Schema, d.Author, 4)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	keys := make(map[string]bool, len(all))
	for _, p := range all {
		keys[p.Key()] = true
	}
	for _, p := range DBLPPaperPaths(d) {
		if !keys[p.Key()] {
			t.Errorf("Table 3 path %s not enumerated", p)
		}
	}
}

func TestEnumerateErrors(t *testing.T) {
	d := hin.NewDBLPSchema()
	if _, err := Enumerate(d.Schema, d.Author, 0); err == nil {
		t.Error("maxLen 0 accepted")
	}
	if _, err := Enumerate(d.Schema, hin.TypeID(99), 2); err == nil {
		t.Error("invalid start type accepted")
	}
}

func TestDBLPPaperPathSets(t *testing.T) {
	d := hin.NewDBLPSchema()
	all := DBLPPaperPaths(d)
	if len(all) != 10 {
		t.Fatalf("Table 3 has %d paths, want 10", len(all))
	}
	short, long := 0, 0
	for _, p := range all {
		switch p.Len() {
		case 2:
			short++
		case 4:
			long++
		default:
			t.Errorf("unexpected path length %d for %s", p.Len(), p)
		}
	}
	if short != 4 || long != 6 {
		t.Errorf("got %d length-2 and %d length-4 paths, want 4 and 6", short, long)
	}
	if got := DBLPLength2Paths(d); len(got) != 4 {
		t.Errorf("SHINE4 path set has %d paths, want 4", len(got))
	}
}

func TestIMDBActorPaths(t *testing.T) {
	m := hin.NewIMDBSchema()
	paths := IMDBActorPaths(m)
	if len(paths) != 14 {
		t.Fatalf("IMDb path set has %d paths, want 14", len(paths))
	}
	for _, p := range paths {
		if p.StartType(m.Schema) != m.Actor {
			t.Errorf("path %s does not start at actor", p)
		}
	}
}

// TestKeyFormat pins the walk-cache key: relation IDs in decimal,
// joined by commas, and "" for the empty path. A key is built per walk
// request, so it costs one allocation, the string itself.
func TestKeyFormat(t *testing.T) {
	d := hin.NewDBLPSchema()
	apvpa := MustParse(d.Schema, "A-P-V-P-A")
	for _, tc := range []struct {
		p    Path
		want string
	}{
		{apvpa, "0,3,2,1"},
		{Path{}, ""},
		{Path{rels: []hin.RelationID{1234567, 0, 89}}, "1234567,0,89"},
	} {
		if got := tc.p.Key(); got != tc.want {
			t.Errorf("%v.Key() = %q, want %q", tc.p.Relations(), got, tc.want)
		}
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = apvpa.Key() }); n > 1 {
		t.Errorf("Key() allocates %v times, want at most 1", n)
	}
	_ = sink
}
