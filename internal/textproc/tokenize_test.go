package textproc

import (
	"reflect"
	"testing"
)

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize("Wei Wang received a Ph.D degree in 1999.")
	var words []string
	for _, tok := range toks {
		words = append(words, tok.Text)
	}
	want := []string{"Wei", "Wang", "received", "a", "Ph", "D", "degree", "in", "1999"}
	if !reflect.DeepEqual(words, want) {
		t.Errorf("Tokenize = %v, want %v", words, want)
	}
}

func TestTokenizeOffsets(t *testing.T) {
	text := "data, mining"
	toks := Tokenize(text)
	if len(toks) != 2 {
		t.Fatalf("got %d tokens", len(toks))
	}
	for _, tok := range toks {
		if text[tok.Start:tok.End] != tok.Text {
			t.Errorf("token %q offsets [%d,%d) give %q", tok.Text, tok.Start, tok.End, text[tok.Start:tok.End])
		}
	}
	if toks[1].Lower != "mining" {
		t.Errorf("Lower = %q", toks[1].Lower)
	}
}

func TestTokenizeEdgeCases(t *testing.T) {
	if got := Tokenize(""); got != nil {
		t.Errorf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("..., --- !!"); got != nil {
		t.Errorf("Tokenize(punct) = %v", got)
	}
	// Trailing token without following separator.
	toks := Tokenize("VLDB")
	if len(toks) != 1 || toks[0].Text != "VLDB" {
		t.Errorf("Tokenize(VLDB) = %v", toks)
	}
	// Unicode letters form tokens.
	toks = Tokenize("naïve café")
	if len(toks) != 2 || toks[0].Text != "naïve" {
		t.Errorf("Tokenize(unicode) = %v", toks)
	}
}

func TestIsYear(t *testing.T) {
	for _, y := range []string{"1900", "1999", "2013", "2099"} {
		if !IsYear(y) {
			t.Errorf("IsYear(%s) = false", y)
		}
	}
	for _, y := range []string{"199", "19999", "1899", "2100", "abcd", "20x3", ""} {
		if IsYear(y) {
			t.Errorf("IsYear(%s) = true", y)
		}
	}
}

func TestNormalizeTerm(t *testing.T) {
	cases := map[string]string{
		"Mining":    "mine",
		"DATABASES": "databas",
		"1999":      "",
		"x":         "x",
		"don't":     "dont",
	}
	for in, want := range cases {
		if got := NormalizeTerm(in); got != want {
			t.Errorf("NormalizeTerm(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStopWords(t *testing.T) {
	for _, w := range []string{"the", "The", "and", "of", "university"} {
		if !IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = false", w)
		}
	}
	for _, w := range []string{"mining", "database", "wang", ""} {
		if IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = true", w)
		}
	}
	if len(stopWords) < 200 {
		t.Errorf("stop list has only %d words", len(stopWords))
	}
}

func TestDictionaryLongestMatch(t *testing.T) {
	d := NewDictionary()
	d.Add("Wei Wang", 1)
	d.Add("Wang", 2)
	d.Add("Richard R. Muntz", 3)
	d.Add("SIGMOD", 4)

	toks := Tokenize("supervision of Prof. Richard R. Muntz at SIGMOD by Wei Wang")
	matches := d.FindAll(toks)
	if len(matches) != 3 {
		t.Fatalf("got %d matches: %v", len(matches), matches)
	}
	if matches[0].Value != 3 {
		t.Errorf("first match value = %v, want Muntz", matches[0].Value)
	}
	if matches[1].Value != 4 {
		t.Errorf("second match value = %v, want SIGMOD", matches[1].Value)
	}
	// "Wei Wang" must beat the shorter "Wang".
	if matches[2].Value != 1 {
		t.Errorf("third match value = %v, want Wei Wang (longest)", matches[2].Value)
	}
	// The text ends with "Wei Wang": the match spans its last two tokens.
	if m := matches[2]; m.TokenStart != len(toks)-2 || m.TokenEnd != len(toks) {
		t.Errorf("third match spans tokens [%d, %d) of %d, want the last two", m.TokenStart, m.TokenEnd, len(toks))
	}
}

func TestDictionaryCaseInsensitive(t *testing.T) {
	d := NewDictionary()
	d.Add("data mining", "dm")
	toks := Tokenize("interests include Data Mining and more")
	matches := d.FindAll(toks)
	if len(matches) != 1 || matches[0].Value != "dm" {
		t.Errorf("matches = %v", matches)
	}
}

func TestDictionaryNonOverlapping(t *testing.T) {
	d := NewDictionary()
	d.Add("a b", 1)
	d.Add("b c", 2)
	toks := Tokenize("a b c")
	matches := d.FindAll(toks)
	// Greedy left-to-right: "a b" consumes b, so "b c" cannot match.
	if len(matches) != 1 || matches[0].Value != 1 {
		t.Errorf("matches = %v", matches)
	}
}

func TestDictionaryOverwriteAndLen(t *testing.T) {
	d := NewDictionary()
	d.Add("VLDB", 1)
	d.Add("VLDB", 2)
	d.Add("", 3) // ignored
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
	matches := d.FindAll(Tokenize("VLDB"))
	if len(matches) != 1 || matches[0].Value != 2 {
		t.Errorf("overwrite failed: %v", matches)
	}
}

func TestDictionaryEmpty(t *testing.T) {
	d := NewDictionary()
	if got := d.FindAll(Tokenize("anything at all")); got != nil {
		t.Errorf("empty dictionary matched: %v", got)
	}
}

func TestDictionaryPunctuationInsensitiveForms(t *testing.T) {
	d := NewDictionary()
	d.Add("Michael J. Jordan", 7)
	// Document omits the period after the middle initial.
	matches := d.FindAll(Tokenize("with Michael J Jordan today"))
	if len(matches) != 1 || matches[0].Value != 7 {
		t.Errorf("matches = %v", matches)
	}
}
